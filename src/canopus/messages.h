// Canopus wire messages (§4.2).
//
// A Proposal is both the round-1 broadcast ("here are my pending writes,
// my random proposal number, my membership observations") and the carrier
// of merged vnode state in later rounds. `round` is the round in which the
// proposal is *consumed*: round-1 proposals carry leaf state; the merged
// state of a height-r ancestor is consumed in round r+1.
//
// Read requests are deliberately absent: Canopus never disseminates reads
// (§5); only write requests ride in proposals.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"
#include "kv/store.h"
#include "kv/types.h"
#include "simnet/payload.h"

namespace canopus::proto {

struct MembershipUpdate {
  enum class Kind : std::uint8_t { kLeave, kJoin };
  Kind kind = Kind::kLeave;
  NodeId node = kInvalidNode;

  friend bool operator==(const MembershipUpdate&,
                         const MembershipUpdate&) = default;
};

struct Proposal;

/// The ordered write requests a proposal carries, immutable once built. A
/// leaf set holds one node's round-1 batch; a merged set holds its inputs'
/// sets in merge order, so a §4.2 merge copies handles, not requests (a
/// rope: Boehm, Atkinson & Plass, "Ropes: an Alternative to Strings",
/// 1995). Every node of a deployment shares the sets it received, and a
/// retained cycle holds only handles to them.
///
/// A set is ONE heap block: this 16-byte header (holder count, part count,
/// write count), then the leaf's requests or the merged set's part
/// handles. Sets cross threads inside proposals (PDES shards, the threaded
/// backend), so the last holder may drop on another thread than the
/// builder; the count is simnet::HolderCount, the one Payload's block uses.
/// Nothing rewrites a set once built.
class WriteSet {
 public:
  /// An 8-byte counted handle; null or one holder of a set.
  class Ptr {
   public:
    Ptr() = default;
    Ptr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
    Ptr(const Ptr& other) noexcept : set_(other.set_) {
      if (set_ != nullptr) set_->holders_.add();
    }
    Ptr(Ptr&& other) noexcept : set_(std::exchange(other.set_, nullptr)) {}
    /// Copy and move assignment in one, as Payload's.
    Ptr& operator=(Ptr other) noexcept {
      std::swap(set_, other.set_);
      return *this;
    }
    ~Ptr() {
      if (set_ != nullptr && set_->holders_.drop()) destroy(set_);
    }

    const WriteSet* get() const { return set_; }
    const WriteSet* operator->() const { return set_; }
    const WriteSet& operator*() const { return *set_; }
    explicit operator bool() const { return set_ != nullptr; }
    friend bool operator==(const Ptr& p, std::nullptr_t) {
      return p.set_ == nullptr;
    }

   private:
    friend class WriteSet;
    friend Ptr merge_writes(std::span<const Proposal* const> inputs);
    /// Adopts a new set's first holder.
    explicit Ptr(WriteSet* set) : set_(set) {}

    WriteSet* set_ = nullptr;
  };

  /// A leaf: a copy of `writes`.
  static Ptr leaf(std::span<const kv::Request> writes) {
    static_assert(std::is_trivially_copyable_v<kv::Request>);
    WriteSet* const set = allocate<kv::Request>(writes.size(), writes.size());
    std::uninitialized_copy(writes.begin(), writes.end(),
                            static_cast<kv::Request*>(set->tail()));
    return Ptr(set);
  }

  std::size_t size() const { return size_; }
  /// The inputs of a merged set, in merge order; empty for a leaf.
  std::span<const Ptr> parts() const { return tail_as<const Ptr>(parts_); }

  /// Appends every write, in order, to `out`.
  void append_to(std::vector<kv::Request>& out) const {
    const auto own = tail_as<const kv::Request>(parts_ == 0 ? size_ : 0);
    out.insert(out.end(), own.begin(), own.end());
    for (const Ptr& p : parts()) p->append_to(out);
  }

 private:
  friend Ptr merge_writes(std::span<const Proposal* const> inputs);

  WriteSet(std::size_t size, std::uint32_t parts)
      : parts_(parts), size_(size) {}

  /// A set of `size` writes, in one block with room behind the header
  /// for `n` E: a leaf's requests, or a merged set's parts. The caller
  /// constructs them.
  template <class E>
  static WriteSet* allocate(std::size_t n, std::size_t size) {
    static_assert(alignof(E) <= alignof(WriteSet));
    constexpr bool merged = std::is_same_v<E, Ptr>;
    assert(!merged || n <= UINT32_MAX);
    return ::new (::operator new(sizeof(WriteSet) + n * sizeof(E)))
        WriteSet(size, merged ? static_cast<std::uint32_t>(n) : 0);
  }

  /// Where the block's tail starts: the leaf's requests or the merged
  /// set's parts.
  void* tail() const { return const_cast<WriteSet*>(this) + 1; }
  /// The `n` E built in the tail (none for n == 0).
  template <class E>
  std::span<E> tail_as(std::size_t n) const {
    if (n == 0) return {};
    return {std::launder(static_cast<E*>(tail())), n};
  }

  /// Ends each part's handle, then frees the block.
  static void destroy(WriteSet* set) noexcept {
    std::ranges::destroy(set->tail_as<Ptr>(set->parts_));
    set->~WriteSet();
    ::operator delete(set);
  }

  simnet::HolderCount holders_;
  std::uint32_t parts_;  ///< in the padding after holders_
  std::size_t size_;
};
static_assert(sizeof(WriteSet) == 16);
static_assert(sizeof(WriteSet::Ptr) == 8);

struct Proposal {
  CycleId cycle = 0;
  RoundId round = 1;   ///< round in which this proposal is consumed
  VnodeId vnode = 0;   ///< vnode whose state this carries
  /// Large random number ordering proposals within a round; merged
  /// proposals carry the max of their inputs (§4.2).
  std::uint64_t number = 0;
  /// Deterministic tie-break: the unique id of the node/vnode that
  /// generated `number` ("ties are broken using the unique IDs").
  std::uint64_t tiebreak = 0;
  /// Ordered write requests; null when there are none. Shared: a
  /// re-broadcast copies one pointer, a merged state points at the states
  /// it merged (merge_writes), and the node flattens only its root state,
  /// once, at commit.
  WriteSet::Ptr writes;
  std::vector<MembershipUpdate> membership;

  std::size_t write_count() const { return writes ? writes->size() : 0; }

  std::size_t wire_bytes() const {
    return 64 + kv::kRequestWire * write_count() + 8 * membership.size();
  }

  /// Ordering within a round: by (number, tiebreak); tiebreak collisions
  /// cannot happen across distinct proposals of one round.
  friend bool operator<(const Proposal& a, const Proposal& b) {
    return a.number != b.number ? a.number < b.number
                                : a.tiebreak < b.tiebreak;
  }
};

/// The write set of a merge of `inputs`, given in merge order: null when
/// every input is empty, the one non-empty input's own set when there is
/// exactly one (neither allocates), else a merged set whose block holds
/// the non-empty inputs' handles.
inline WriteSet::Ptr merge_writes(std::span<const Proposal* const> inputs) {
  std::size_t nonempty = 0;
  std::size_t total = 0;
  const Proposal* only = nullptr;
  for (const Proposal* p : inputs) {
    if (p->write_count() == 0) continue;
    ++nonempty;
    total += p->write_count();
    only = p;
  }
  if (nonempty <= 1) return only != nullptr ? only->writes : nullptr;
  WriteSet* const set = WriteSet::allocate<WriteSet::Ptr>(nonempty, total);
  auto* part = static_cast<WriteSet::Ptr*>(set->tail());
  for (const Proposal* p : inputs) {
    if (p->write_count() != 0) ::new (part++) WriteSet::Ptr(p->writes);
  }
  return WriteSet::Ptr(set);
}

/// Representative -> remote emulator: "send me the state of `vnode` for
/// `cycle`" (§4.2). Also serves as the cross-super-leaf self-synchronization
/// prompt (§4.4).
struct ProposalRequest {
  CycleId cycle = 0;
  RoundId round = 1;  ///< round the requester will consume the state in
  VnodeId vnode = 0;

  std::size_t wire_bytes() const { return 32; }
};

/// Joining node -> a live super-leaf member (§3 assumption 6).
struct JoinRequest {
  NodeId joiner = kInvalidNode;
  std::size_t wire_bytes() const { return 16; }
};

/// Sponsor -> joiner: the full state transfer that re-admits an excluded
/// pnode. Sent when the kJoin membership update commits (the agreed point,
/// §4.6): the sponsor's committed KV state through `snapshot_cycle`, the
/// super-leaf's live membership (with each member's activation cycle, see
/// CanopusNode::active_from_), and the deployment-wide exclusion list so the
/// joiner's emulation table matches the snapshot point. The joiner commits
/// cycles in (snapshot_cycle, first_cycle) by fetching their merged root
/// states, and contributes its own round-1 proposals from `first_cycle` on.
struct JoinAck {
  CycleId snapshot_cycle = 0;  ///< snapshot covers commits through this cycle
  CycleId first_cycle = 0;     ///< joiner's round-1 participation starts here
  kv::Snapshot snap;
  /// Live super-leaf members (joiner included) -> activation cycle
  /// (0 = active since before the snapshot).
  std::vector<std::pair<NodeId, CycleId>> members;
  /// Pnodes currently excluded deployment-wide (emulation-table state).
  std::vector<NodeId> dead;

  std::size_t wire_bytes() const {
    return 64 + snap.wire_bytes() + 16 * members.size() + 8 * dead.size();
  }
};

}  // namespace canopus::proto

CANOPUS_REGISTER_PAYLOAD(canopus::proto::Proposal, kCanopusProposal);
CANOPUS_REGISTER_PAYLOAD(canopus::proto::ProposalRequest,
                         kCanopusProposalRequest);
CANOPUS_REGISTER_PAYLOAD(canopus::proto::JoinRequest, kCanopusJoinRequest);
CANOPUS_REGISTER_PAYLOAD(canopus::proto::JoinAck, kCanopusJoinAck);
