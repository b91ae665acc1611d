// Leaf-Only Tree (LOT) overlay (paper §4.1) and the emulation table (§4.6).
//
// Only leaf nodes (pnodes) exist physically; every internal node (vnode) is
// virtual and is emulated by all of its descendant pnodes. Pnodes in the
// same rack form a super-leaf whose members share a common height-1 parent.
//
// The tree shape is fixed for the lifetime of a deployment (assumption A3:
// super-leaves are never added or removed; only members churn), so Lot is
// immutable. Mutable liveness state lives in EmulationTable.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace canopus::lot {

struct LotConfig {
  /// Pnode ids per super-leaf (rack). Must be non-empty and disjoint.
  std::vector<std::vector<NodeId>> super_leaves;
  /// Fan-out of internal levels above the super-leaf parents. 0 (default)
  /// places a single root directly above all super-leaf vnodes (height 2,
  /// the shape used throughout the paper's evaluation). Values >= 2 build
  /// taller trees by grouping consecutive vnodes.
  int arity = 0;
};

/// Immutable LOT shape. Vnode ids are dense indices; leaf vnodes come
/// first (one per pnode), then internal vnodes level by level, root last.
class Lot {
 public:
  static Lot build(const LotConfig& cfg);

  /// Tree height h = number of rounds per consensus cycle (§4.2). A single
  /// super-leaf yields height 1.
  int height() const { return height_; }

  VnodeId root() const { return root_; }

  std::size_t num_pnodes() const { return pnode_count_; }
  std::size_t num_vnodes() const { return parent_.size(); }

  /// Leaf vnode corresponding to a pnode (A(n, 0) = n).
  VnodeId leaf_of(NodeId pnode) const;

  /// The pnode of a leaf vnode; kInvalidNode for internal vnodes.
  NodeId pnode_of(VnodeId v) const { return pnode_[v]; }

  /// A(pnode, level): the ancestor vnode at the given height (level 0 is
  /// the leaf itself, level == height() is the root).
  VnodeId ancestor(NodeId pnode, int level) const;

  /// Height of a vnode (0 for leaves).
  int level(VnodeId v) const { return level_[v]; }

  VnodeId parent(VnodeId v) const { return parent_[v]; }
  const std::vector<VnodeId>& children(VnodeId v) const {
    return children_[v];
  }

  /// All pnodes in the subtree of v, in pnode order ("D(v)"); the static
  /// column of the emulation table.
  const std::vector<NodeId>& descendants(VnodeId v) const {
    return descendants_[v];
  }

  int super_leaf_of(NodeId pnode) const;
  std::size_t num_super_leaves() const { return super_leaves_.size(); }

  /// Dense slot of a pnode (super-leaf flattening order): the index shared
  /// by every per-pnode table, including EmulationTable's liveness bits.
  /// O(1) via a table built once in build(); throws on unknown pnodes.
  std::size_t pnode_slot(NodeId pnode) const;
  const std::vector<NodeId>& super_leaf_members(int sl) const {
    return super_leaves_[static_cast<std::size_t>(sl)];
  }

  /// The height-1 vnode shared by a super-leaf's members.
  VnodeId super_leaf_vnode(int sl) const {
    return sl_vnode_[static_cast<std::size_t>(sl)];
  }

  /// Dotted path name for debugging/diagrams, e.g. "1.1.2".
  std::string name(VnodeId v) const;

 private:
  int height_ = 0;
  VnodeId root_ = 0;
  std::size_t pnode_count_ = 0;
  std::vector<VnodeId> parent_;
  std::vector<int> level_;
  std::vector<std::vector<VnodeId>> children_;
  std::vector<std::vector<NodeId>> descendants_;
  std::vector<NodeId> pnode_;  // vnode -> pnode (leaves only)
  std::vector<std::vector<NodeId>> super_leaves_;
  std::vector<VnodeId> sl_vnode_;
  std::vector<VnodeId> leaf_vnode_by_pnode_;  // dense by pnode position
  std::vector<int> sl_by_pnode_;
  std::vector<std::size_t> slot_by_pnode_;  // pnode id -> slot, O(1) lookup
};

/// Mutable liveness view over a Lot: which pnodes currently emulate each
/// vnode (§4.6). Every node maintains its own copy; updates are applied at
/// agreed points (end of the consensus cycle that carried the membership
/// change), so all live nodes hold identical tables in each cycle.
class EmulationTable {
 public:
  explicit EmulationTable(const Lot& lot);

  /// Live descendant pnodes of v, in pnode order. Served from a per-vnode
  /// cached list that is invalidated only by add()/remove(), so the common
  /// no-failure case is a vector indexing with zero allocations — this
  /// sits on the per-message fetch path (canopus/node.cpp issue_fetch).
  const std::vector<NodeId>& emulators(VnodeId v) const;

  bool is_live(NodeId pnode) const;
  void remove(NodeId pnode);
  void add(NodeId pnode);

  std::size_t live_count() const { return live_count_; }

 private:
  std::size_t slot(NodeId pnode) const { return lot_->pnode_slot(pnode); }

  const Lot* lot_;
  std::vector<bool> live_;  // dense by pnode slot
  std::size_t live_count_ = 0;
  // Lazily rebuilt cache; a liveness change (rare) clears the valid bits.
  mutable std::vector<std::vector<NodeId>> emulators_cache_;  // by vnode
  mutable std::vector<bool> emulators_valid_;
};

}  // namespace canopus::lot
