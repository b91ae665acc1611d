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
#include <vector>

#include "kv/replica.h"
#include "kv/types.h"
#include "raft/raft.h"

namespace canopus::raft {

struct KvConfig {
  /// Batching window for writes at every node (leader and forwarders).
  Time batch_interval = 1 * kMillisecond;
  /// Leader-side protocol CPU per write (log append, pipeline bookkeeping).
  /// Cheaper than the ZooKeeper request pipeline — this is bare Raft, not a
  /// full coordination service — but still a centralized per-write cost.
  Time leader_cpu_per_write = 5'000;
  /// Per-write apply cost at every member; per-read cost at the server.
  Time cpu_per_write = 1'000;
  Time cpu_per_read = 1'000;
  /// Election/heartbeat tuning for the cluster-wide group.
  Options raft;
};

/// Replicated log-entry payload: one batch of writes, shared across the
/// per-follower fan-out.
struct KvBatch {
  std::shared_ptr<const std::vector<kv::Request>> reqs;
  std::size_t wire_bytes() const {
    return 32 + kv::kRequestWire * (reqs ? reqs->size() : 0);
  }
};

/// Member -> leader write forwarding frame.
struct KvForward {
  std::vector<kv::Request> reqs;
  std::size_t wire_bytes() const {
    return 24 + kv::kRequestWire * reqs.size();
  }
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
  /// `members` lists every server; members[0] bootstraps as leader.
  RaftKvNode(std::vector<NodeId> members, KvConfig cfg);

  void on_start() override;
  void on_message(const simnet::Message& m) override;

  /// Local submission path for examples/tests.
  void submit(kv::Request r);

  /// Crash-stop: silences the Raft member and all local timers.
  void crash();
  /// Restart after a crash with the durable state (log, term) intact; the
  /// node rejoins as a follower and is repaired by the leader.
  void recover();
  bool crashed() const { return crashed_; }

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
  void enqueue(kv::Request r);
  void arm_flush_timer();
  void flush_batch();

  std::vector<NodeId> members_;
  KvConfig cfg_;
  std::unique_ptr<RaftNode> raft_;

  std::vector<kv::Request> pending_;
  bool flush_timer_armed_ = false;
  bool crashed_ = false;
};

}  // namespace canopus::raft

CANOPUS_REGISTER_PAYLOAD(canopus::raft::KvBatch, kRaftKvBatch);
CANOPUS_REGISTER_PAYLOAD(canopus::raft::KvForward, kRaftKvForward);
CANOPUS_REGISTER_PAYLOAD(canopus::raft::KvSnapshot, kRaftKvSnapshot);
