// Zab / ZooKeeper baseline: centralized atomic broadcast (Junqueira et al.,
// DSN '11), configured the way the Canopus paper runs it (§8.1.2):
//
//  * one leader;
//  * a fixed set of followers (the paper uses 5) that vote on proposals;
//  * every remaining node is an observer: it does not vote, but receives
//    committed transactions asynchronously and serves reads locally.
//
// Write path: any node forwards client writes to the leader; the leader
// batches them, proposes to followers, commits on a majority of votes
// (leader + followers), then broadcasts the commit to followers and INFORMs
// observers. The node that received a client's request replies to that
// client after applying the commit locally.
//
// Read path: served immediately from local committed state (ZooKeeper's
// consistency model), by any node.
//
// The centralized coordinator is the bottleneck this baseline exists to
// show: every write traverses the leader, and the leader's egress grows
// with the number of followers + observers.
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kv/replica.h"
#include "kv/types.h"

namespace canopus::zab {

/// Leader-side protocol CPU per write: the full ZooKeeper request pipeline
/// (session checks, znode processing, txn serialization) runs on the single
/// coordinator — the centralized bottleneck of §8.1.2.
inline constexpr Time kLeaderCpuPerWrite = 20'000;
/// Per-write apply cost at every member; per-read service cost at the
/// serving node.
inline constexpr Time kCpuPerWrite = 1'000;
inline constexpr Time kCpuPerRead = 1'000;

struct Config {
  /// Number of voting followers (the paper uses 5; the rest observe).
  int followers = 5;
  /// Leader-side batching window for proposals.
  Time batch_interval = 1 * kMillisecond;
  /// Fault-plane tuning: how often the leader retransmits unacked proposals
  /// and a lagging member retries its catch-up request.
  Time sync_retry = 50 * kMillisecond;
  /// Committed batches the leader retains for member catch-up; the bound
  /// on every node's retained log. A member that falls further behind than
  /// this window is repaired by a full state snapshot (ZooKeeper's fuzzy
  /// snapshot, modeled at a commit boundary).
  std::size_t history_depth = 512;
};

using Zxid = std::uint64_t;

struct Forward {  // member -> leader; view-bodied (Payload::with_body)
  std::span<const kv::Request> reqs;
  std::size_t wire_bytes() const { return 24 + kv::kRequestWire * reqs.size(); }
};

struct Propose {  // leader -> followers
  Zxid zxid = 0;
  /// Shared so the per-follower fan-out does not copy the batch.
  std::shared_ptr<const std::vector<kv::Request>> batch;
  std::size_t wire_bytes() const {
    return 32 + kv::kRequestWire * (batch ? batch->size() : 0);
  }
};

struct Ack {  // follower -> leader
  Zxid zxid = 0;
  std::size_t wire_bytes() const { return 24; }
};

struct CommitMsg {  // leader -> followers (they already hold the batch)
  Zxid zxid = 0;
  std::size_t wire_bytes() const { return 24; }
};

struct Inform {  // leader -> observers (carries the data)
  Zxid zxid = 0;
  std::shared_ptr<const std::vector<kv::Request>> batch;
  std::size_t wire_bytes() const {
    return 32 + kv::kRequestWire * (batch ? batch->size() : 0);
  }
};

struct SyncReq {  // lagging member -> leader: resend commits from `from` on
  Zxid from = 0;
  std::size_t wire_bytes() const { return 24; }
};

struct Snapshot {  // leader -> member whose gap predates retained history
  /// The snapshot covers every commit up to and including `upto`.
  Zxid upto = 0;
  kv::Snapshot snap;
  std::size_t wire_bytes() const { return 32 + snap.wire_bytes(); }
};

class ZabNode : public kv::ReplicaNode {
 public:
  enum class Role { kLeader, kFollower, kObserver };

  /// `members` lists all nodes; members[0] is the leader, the next
  /// cfg.followers are followers, the rest observers.
  ZabNode(std::vector<NodeId> members, Config cfg);

  void on_message(const simnet::Message& m) override;

  void submit(kv::Request r) {
    if (!crashed()) intake({&r, 1});
  }

  /// Asks the leader to resend committed batches this node is missing.
  void resync();

  // Store, digest, counters and hooks: kv::ReplicaNode (on_commit's unit
  // is the zxid).
  Role role() const;
  /// Highest zxid applied locally (commits apply strictly in zxid order).
  Zxid applied_upto() const { return next_apply_ - 1; }
  /// Committed batches currently retained for catch-up (the leader's ring;
  /// 0 elsewhere) — the memory footprint history_depth bounds.
  std::size_t log_entries_retained() const { return history_.size(); }
  /// Snapshots this node shipped as leader.
  std::uint64_t snapshots_served() const { return snapshots_served_; }

 private:
  struct InFlight {
    std::shared_ptr<const std::vector<kv::Request>> batch;
    /// Followers whose Ack arrived (the leader's own vote is implicit).
    std::unordered_set<NodeId> acked;
  };

  /// A crash loses the leader's unproposed writes. Committed state, the
  /// uncommitted and ready tables and the leader's in-flight table survive:
  /// the durable-log crash-recovery model.
  void on_crash() override;
  /// The leader retransmits its unacked proposals; a member catches up.
  void on_recover() override;

  /// Client intake, shared by submit() and client batches: reads are
  /// served locally, writes batched (leader) or forwarded.
  void intake(std::span<const kv::Request> reqs);
  void arm_batch_timer();                   // leader only
  void flush_batch();                       // leader only
  void advance_apply();
  void handle_forward(const Forward& f);    // leader only
  void handle_propose(NodeId src, const Propose& p);
  void handle_ack(NodeId src, const Ack& a);  // leader only
  void handle_commit(const CommitMsg& c);
  void handle_inform(const Inform& inf);
  void handle_sync_req(NodeId src, const SyncReq& sr);  // leader only
  void handle_snapshot(const Snapshot& s);
  void record_history(Zxid zxid,
                      std::shared_ptr<const std::vector<kv::Request>> batch);
  void arm_retransmit_timer();              // leader only
  void arm_sync_timer();                    // lagging member
  std::size_t quorum() const {
    return (static_cast<std::size_t>(cfg_.followers) + 1) / 2 + 1;
  }

  std::vector<NodeId> members_;
  Config cfg_;
  NodeId leader_ = kInvalidNode;

  /// intake()'s writes for the leader, kept across calls (member only).
  std::vector<kv::Request> forward_;
  /// The last Forward sent, refilled once the leader has dropped it.
  simnet::Payload forward_memo_;

  // Leader state.
  std::vector<kv::Request> pending_;
  Zxid next_zxid_ = 1;
  std::unordered_map<Zxid, InFlight> in_flight_;
  bool batch_timer_armed_ = false;
  bool retransmit_timer_armed_ = false;
  /// Committed-batch ring for catch-up: history_[i] holds zxid
  /// history_base_ + i; bounded by cfg_.history_depth.
  std::deque<std::shared_ptr<const std::vector<kv::Request>>> history_;
  Zxid history_base_ = 1;

  // Follower/observer state: proposals held until their commit arrives;
  // commits are applied strictly in zxid order.
  std::unordered_map<Zxid, std::shared_ptr<const std::vector<kv::Request>>>
      uncommitted_;
  std::unordered_map<Zxid, std::shared_ptr<const std::vector<kv::Request>>>
      ready_;
  Zxid next_apply_ = 1;
  /// Highest zxid known committed cluster-wide (from CommitMsg/Inform).
  /// next_apply_ <= max_committed_seen_ means this member has a gap and
  /// needs catch-up.
  Zxid max_committed_seen_ = 0;
  bool sync_timer_armed_ = false;

  // Snapshot state: the leader caches the exported image per applied
  // frontier (one export serves every lagging member at that frontier).
  Zxid snap_cache_upto_ = 0;
  kv::Snapshot snap_cache_;
  std::uint64_t snapshots_served_ = 0;
};

}  // namespace canopus::zab

CANOPUS_REGISTER_VIEW_PAYLOAD(canopus::zab::Forward, kZabForward, reqs);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::Propose, kZabPropose);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::Ack, kZabAck);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::CommitMsg, kZabCommit);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::Inform, kZabInform);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::SyncReq, kZabSyncReq);
CANOPUS_REGISTER_PAYLOAD(canopus::zab::Snapshot, kZabSnapshot);
