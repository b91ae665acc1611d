// Standalone Raft KV deployment: Raft as a first-class consensus system,
// not just Canopus' broadcast substrate.
//
// One RaftKvNode per server hosts one member of a single cluster-wide Raft
// group (members[0] bootstraps as leader — no initial election). The write
// path is the classic replicated-state-machine arrangement:
//
//  * any node accepts client writes, batches them, and — if it is the
//    leader — proposes the batch to the group; a non-leader forwards its
//    batch to its current leader hint;
//  * every member applies committed batches in log order; the member that
//    received a request from a client replies to that client when it
//    applies the commit locally.
//
// Reads are served from local committed state (ZooKeeper-style sequential
// consistency; linearizable leader-lease reads are an open item). Unlike
// the Zab baseline, the group runs full crash-stop Raft: a crashed leader
// is replaced by election and a recovered or partitioned member's log is
// repaired by the ordinary AppendEntries backoff — this is the system the
// failure scenarios use as the "self-healing leader" reference point.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "kv/replica.h"
#include "kv/types.h"
#include "raft/raft.h"

namespace canopus::raft {

/// Batching window for writes at every node (leader and forwarders).
inline constexpr Time kKvBatchInterval = 1 * kMillisecond;
/// Leader-side protocol CPU per write (log append, pipeline bookkeeping).
/// Cheaper than the ZooKeeper request pipeline — this is bare Raft, not a
/// full coordination service — but still a centralized per-write cost.
inline constexpr Time kKvLeaderCpuPerWrite = 5'000;
/// Per-write apply cost at every member; per-read cost at the server.
inline constexpr Time kKvCpuPerWrite = 1'000;
inline constexpr Time kKvCpuPerRead = 1'000;

/// Replicated log-entry payload: one batch of writes, shared across the
/// per-follower fan-out.
struct KvBatch {
  std::shared_ptr<const std::vector<kv::Request>> reqs;
  std::size_t wire_bytes() const {
    return 32 + kv::kRequestWire * (reqs ? reqs->size() : 0);
  }
};

/// Member -> leader write forwarding frame; view-bodied
/// (simnet::Payload::with_body).
struct KvForward {
  std::span<const kv::Request> reqs;
  std::size_t wire_bytes() const { return 24 + kv::kRequestWire * reqs.size(); }
};

/// Compaction snapshot payload (rides inside raft::WireMsg InstallSnapshot):
/// the KV image plus digest state, so a far-behind follower fast-forwards to
/// the leader's applied frontier and its audit chain continues exactly.
struct KvSnapshot {
  kv::Snapshot snap;
  std::size_t wire_bytes() const { return snap.wire_bytes(); }
};

class RaftKvNode : public kv::ReplicaNode {
 public:
  /// `members` lists every server; members[0] bootstraps as leader. `opt`
  /// tunes the cluster-wide group.
  RaftKvNode(std::vector<NodeId> members, Options opt);

  void on_start() override;
  void on_message(const simnet::Message& m) override;

  /// Local submission path for examples/tests.
  void submit(kv::Request r);

  // --- observers (store, digest and counters: kv::ReplicaNode) ----------
  bool is_leader() const { return raft_ && raft_->is_leader(); }
  NodeId leader_hint() const {
    return raft_ ? raft_->leader_hint() : kInvalidNode;
  }
  LogIndex commit_index() const { return raft_ ? raft_->commit_index() : 0; }
  std::size_t log_entries_retained() const {
    return raft_ ? raft_->log_entries_retained() : 0;
  }

 private:
  /// A crash stops the Raft member and loses the unproposed writes.
  void on_crash() override;
  /// The durable state (log, term, vote) survives: the node rejoins as a
  /// follower and the leader's AppendEntries backoff repairs its log.
  void on_recover() override;
  void enqueue(kv::Request r);
  void arm_flush_timer();
  void flush_batch();

  std::vector<NodeId> members_;
  Options opt_;
  std::unique_ptr<RaftNode> raft_;

  std::vector<kv::Request> pending_;
  /// The last KvForward sent, refilled once its leader has dropped it.
  simnet::Payload forward_memo_;
  bool flush_timer_armed_ = false;
};

}  // namespace canopus::raft

CANOPUS_REGISTER_PAYLOAD(canopus::raft::KvBatch, kRaftKvBatch);
CANOPUS_REGISTER_VIEW_PAYLOAD(canopus::raft::KvForward, kRaftKvForward, reqs);
CANOPUS_REGISTER_PAYLOAD(canopus::raft::KvSnapshot, kRaftKvSnapshot);
