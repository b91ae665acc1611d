#include "canopus/lot.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

namespace canopus::lot {

namespace {
constexpr std::size_t kUnknownSlot = static_cast<std::size_t>(-1);

// pnode -> dense slot lookup shared by Lot and EmulationTable.
std::unordered_map<NodeId, std::size_t> build_slots(
    const std::vector<std::vector<NodeId>>& super_leaves) {
  std::unordered_map<NodeId, std::size_t> slots;
  std::size_t next = 0;
  for (const auto& sl : super_leaves)
    for (NodeId p : sl) {
      if (!slots.emplace(p, next).second)
        throw std::invalid_argument("pnode appears in two super-leaves");
      ++next;
    }
  return slots;
}
}  // namespace

Lot Lot::build(const LotConfig& cfg) {
  if (cfg.super_leaves.empty())
    throw std::invalid_argument("LOT needs at least one super-leaf");
  for (const auto& sl : cfg.super_leaves)
    if (sl.empty()) throw std::invalid_argument("empty super-leaf");
  if (cfg.arity == 1)
    throw std::invalid_argument("internal arity must be 0 or >= 2");

  Lot t;
  t.super_leaves_ = cfg.super_leaves;

  const auto slots = build_slots(cfg.super_leaves);
  t.pnode_count_ = slots.size();
  t.leaf_vnode_by_pnode_.resize(t.pnode_count_);
  t.sl_by_pnode_.resize(t.pnode_count_);

  // Dense pnode -> slot table: node ids are topology indices, so the table
  // is at most the deployment size. Built once here; every per-message
  // lookup (leaf_of, ancestor, EmulationTable::slot) is then O(1).
  NodeId max_pnode = 0;
  for (const auto& [p, s] : slots) max_pnode = std::max(max_pnode, p);
  t.slot_by_pnode_.assign(std::size_t{max_pnode} + 1, kUnknownSlot);
  for (const auto& [p, s] : slots) t.slot_by_pnode_[p] = s;

  // Leaves first: one vnode per pnode.
  for (std::size_t sl = 0; sl < cfg.super_leaves.size(); ++sl) {
    for (NodeId p : cfg.super_leaves[sl]) {
      const VnodeId v = t.parent_.size();
      t.parent_.push_back(0);  // fixed up below
      t.level_.push_back(0);
      t.children_.emplace_back();
      t.descendants_.push_back({p});
      t.pnode_.push_back(p);
      const std::size_t slot = slots.at(p);
      t.leaf_vnode_by_pnode_[slot] = v;
      t.sl_by_pnode_[slot] = static_cast<int>(sl);
    }
  }

  // Height-1 vnodes: super-leaf parents.
  std::vector<VnodeId> frontier;
  for (std::size_t sl = 0; sl < cfg.super_leaves.size(); ++sl) {
    const VnodeId v = t.parent_.size();
    t.parent_.push_back(0);
    t.level_.push_back(1);
    std::vector<VnodeId> kids;
    std::vector<NodeId> desc;
    for (NodeId p : cfg.super_leaves[sl]) {
      const VnodeId leaf = t.leaf_vnode_by_pnode_[slots.at(p)];
      kids.push_back(leaf);
      t.parent_[leaf] = v;
      desc.push_back(p);
    }
    t.children_.push_back(std::move(kids));
    t.descendants_.push_back(std::move(desc));
    t.pnode_.push_back(kInvalidNode);
    t.sl_vnode_.push_back(v);
    frontier.push_back(v);
  }

  // Internal levels: group `arity` vnodes per parent until one remains.
  int level = 1;
  while (frontier.size() > 1) {
    ++level;
    const std::size_t group =
        cfg.arity >= 2 ? static_cast<std::size_t>(cfg.arity)
                       : frontier.size();  // arity 0: single parent level
    std::vector<VnodeId> next;
    for (std::size_t i = 0; i < frontier.size(); i += group) {
      const VnodeId v = t.parent_.size();
      t.parent_.push_back(0);
      t.level_.push_back(level);
      std::vector<VnodeId> kids;
      std::vector<NodeId> desc;
      for (std::size_t j = i; j < std::min(i + group, frontier.size()); ++j) {
        kids.push_back(frontier[j]);
        t.parent_[frontier[j]] = v;
        const auto& d = t.descendants_[frontier[j]];
        desc.insert(desc.end(), d.begin(), d.end());
      }
      t.children_.push_back(std::move(kids));
      t.descendants_.push_back(std::move(desc));
      t.pnode_.push_back(kInvalidNode);
      next.push_back(v);
    }
    frontier = std::move(next);
  }

  t.root_ = frontier.front();
  t.parent_[t.root_] = t.root_;
  t.height_ = t.level_[t.root_];
  return t;
}

std::size_t Lot::pnode_slot(NodeId pnode) const {
  if (pnode >= slot_by_pnode_.size() || slot_by_pnode_[pnode] == kUnknownSlot)
    throw std::out_of_range("unknown pnode");
  return slot_by_pnode_[pnode];
}

VnodeId Lot::leaf_of(NodeId pnode) const {
  return leaf_vnode_by_pnode_[pnode_slot(pnode)];
}

VnodeId Lot::ancestor(NodeId pnode, int level) const {
  VnodeId v = leaf_of(pnode);
  for (int i = 0; i < level; ++i) v = parent_[v];
  return v;
}

int Lot::super_leaf_of(NodeId pnode) const {
  return sl_by_pnode_[pnode_slot(pnode)];
}

std::string Lot::name(VnodeId v) const {
  if (v == root_) return "1";
  // Collect path components root-ward, then emit them in reverse. (Also
  // avoids prepending to a growing string, which trips GCC 12's -Wrestrict
  // false positive in the std::string concat at -O3.)
  std::vector<std::ptrdiff_t> path;
  VnodeId cur = v;
  while (cur != root_) {
    const VnodeId p = parent_[cur];
    const auto& kids = children_[p];
    path.push_back(std::find(kids.begin(), kids.end(), cur) - kids.begin() +
                   1);
    cur = p;
  }
  std::string out = "1";
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    out += '.';
    out += std::to_string(*it);
  }
  return out;
}

EmulationTable::EmulationTable(const Lot& lot)
    : lot_(&lot),
      live_(lot.num_pnodes(), true),
      live_count_(lot.num_pnodes()),
      // Everyone starts live, so the cache is simply the static columns.
      emulators_valid_(lot.num_vnodes(), true) {
  emulators_cache_.reserve(lot.num_vnodes());
  for (VnodeId v = 0; v < lot.num_vnodes(); ++v)
    emulators_cache_.push_back(lot.descendants(v));
}

bool EmulationTable::is_live(NodeId pnode) const { return live_[slot(pnode)]; }

void EmulationTable::remove(NodeId pnode) {
  const std::size_t s = slot(pnode);
  if (live_[s]) {
    live_[s] = false;
    --live_count_;
    emulators_valid_.assign(emulators_valid_.size(), false);
  }
}

void EmulationTable::add(NodeId pnode) {
  const std::size_t s = slot(pnode);
  if (!live_[s]) {
    live_[s] = true;
    ++live_count_;
    emulators_valid_.assign(emulators_valid_.size(), false);
  }
}

const std::vector<NodeId>& EmulationTable::emulators(VnodeId v) const {
  std::vector<NodeId>& out = emulators_cache_[v];
  if (!emulators_valid_[v]) {
    out.clear();
    for (NodeId p : lot_->descendants(v))
      if (live_[slot(p)]) out.push_back(p);
    emulators_valid_[v] = true;
  }
  return out;
}

}  // namespace canopus::lot
