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

#include <memory>
#include <span>
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

/// The ordered write requests a proposal carries, immutable once built. A
/// leaf set owns its batch; a merged set holds its inputs' sets in merge
/// order, so a §4.2 merge copies pointers, not requests (a rope: Boehm,
/// Atkinson & Plass, "Ropes: an Alternative to Strings", 1995). Every node
/// of a deployment shares the sets it received, and a retained cycle holds
/// only pointers to them.
class WriteSet {
 public:
  using Ptr = std::shared_ptr<const WriteSet>;

  /// A leaf: owns `batch`.
  explicit WriteSet(std::vector<kv::Request> batch)
      : size_(batch.size()), leaf_(std::move(batch)) {}
  /// A merge: `parts` concatenated in order.
  explicit WriteSet(std::vector<Ptr> parts) : parts_(std::move(parts)) {
    for (const Ptr& p : parts_) size_ += p->size();
  }

  std::size_t size() const { return size_; }
  /// The inputs of a merged set, in merge order; empty for a leaf.
  const std::vector<Ptr>& parts() const { return parts_; }

  /// Appends every write, in order, to `out`.
  void append_to(std::vector<kv::Request>& out) const {
    out.insert(out.end(), leaf_.begin(), leaf_.end());
    for (const Ptr& p : parts_) p->append_to(out);
  }

 private:
  std::size_t size_ = 0;
  std::vector<kv::Request> leaf_;
  std::vector<Ptr> parts_;
};

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
/// exactly one, else a merged set over the non-empty inputs' sets.
inline WriteSet::Ptr merge_writes(std::span<const Proposal* const> inputs) {
  std::size_t nonempty = 0;
  const Proposal* only = nullptr;
  for (const Proposal* p : inputs) {
    if (p->write_count() == 0) continue;
    ++nonempty;
    only = p;
  }
  if (nonempty <= 1) return only != nullptr ? only->writes : nullptr;
  std::vector<WriteSet::Ptr> parts;
  parts.reserve(nonempty);
  for (const Proposal* p : inputs) {
    if (p->write_count() != 0) parts.push_back(p->writes);
  }
  return std::make_shared<const WriteSet>(std::move(parts));
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
