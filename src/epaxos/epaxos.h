// EPaxos baseline (Moraru, Andersen, Kaminsky — SOSP '13), as configured in
// the Canopus paper's evaluation (§8):
//
//  * zero command interference — every instance takes the fast path
//    (PreAccept to all, commit on a fast quorum of PreAcceptOKs);
//  * request batching with a configurable duration (5 ms default, 2 ms
//    variant in Figure 4);
//  * "thrifty" disabled — PreAccepts go to every replica, as the paper
//    found thrifty lowered throughput in their runs;
//  * reads travel through the protocol like writes ("EPaxos sends reads
//    over the network to other nodes", §8.1.1), which is why its
//    throughput is insensitive to the write ratio.
//
// Execution: at commit the command leader executes the batch and replies to
// its clients; other replicas execute on receiving the Commit notification
// (they already hold the commands from the PreAccept).
//
// This captures EPaxos' message complexity and latency profile, which is
// what the paper's comparison exercises; the full dependency-graph conflict
// machinery is exercised trivially at zero interference (deps always empty)
// but is implemented for nonzero-interference workloads too: interfering
// instances gather dependencies and execute in dependency order.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/replica.h"
#include "kv/types.h"
#include "simnet/payload.h"

namespace canopus::epaxos {

/// Protocol CPU per command at every replica (dependency/attribute checks on
/// PreAccept, instance bookkeeping) — the per-command work EPaxos pays on
/// reads AND writes at all nodes, unlike Canopus.
inline constexpr Time kCpuPerCommand = 1'500;

struct Config {
  Time batch_interval = 5 * kMillisecond;  ///< paper default; Fig 4 also 2ms
  /// Fraction [0,1] of writes that interfere (conflict) with concurrent
  /// instances; the paper evaluates at 0.
  double interference = 0.0;

  // --- fault-plane tuning -------------------------------------------------
  /// Executed instances whose batches stay resident for peer repair. A
  /// replica that misses commits (crash, partition) fetches them back from
  /// any peer still holding the batch; beyond this window the instance is
  /// unrecoverable from that peer and the fetch rotates to another.
  std::size_t repair_window = 64;
  /// Retry interval for gap-repair fetches. Must exceed the widest RTT in
  /// the deployment (Table 1 tops out at 322 ms) or healthy in-flight
  /// commits are mistaken for gaps; single-DC failure scenarios lower it
  /// for fast post-heal repair.
  Time repair_retry = 350 * kMillisecond;
};

/// Instance id: (replica, per-replica sequence number).
struct InstanceId {
  NodeId replica = kInvalidNode;
  std::uint64_t seq = 0;
  friend bool operator==(const InstanceId&, const InstanceId&) = default;
  friend auto operator<=>(const InstanceId&, const InstanceId&) = default;
};

struct PreAccept {
  InstanceId id;
  /// Shared so the per-peer fan-out does not copy the batch N times.
  std::shared_ptr<const std::vector<kv::Request>> batch;
  std::vector<InstanceId> deps;
  std::size_t wire_bytes() const {
    return 64 + kv::kRequestWire * (batch ? batch->size() : 0) +
           16 * deps.size();
  }
};

struct PreAcceptOk {
  InstanceId id;
  std::vector<InstanceId> deps;  ///< union seen by the acceptor
  std::size_t wire_bytes() const { return 64 + 16 * deps.size(); }
};

struct Commit {
  InstanceId id;
  std::vector<InstanceId> deps;
  std::size_t wire_bytes() const { return 64 + 16 * deps.size(); }
};

/// Repair request: resend committed instances of `replica` with sequence
/// numbers in [from, to].
struct Fetch {
  NodeId replica = kInvalidNode;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::size_t wire_bytes() const { return 40; }
};

/// Repair reply: a commit that carries its batch (for replicas that never
/// received the PreAccept).
struct CommitFull {
  InstanceId id;
  std::shared_ptr<const std::vector<kv::Request>> batch;
  std::vector<InstanceId> deps;
  std::size_t wire_bytes() const {
    return 64 + kv::kRequestWire * (batch ? batch->size() : 0) +
           16 * deps.size();
  }
};

/// Recovery probe: "what is the latest instance you committed as leader?"
struct SeqProbe {
  std::size_t wire_bytes() const { return 24; }
};

struct SeqInfo {
  std::uint64_t committed_seq = 0;  ///< sender's own latest committed seq
  std::size_t wire_bytes() const { return 24; }
};

/// State-transfer request: "send me your full state" — issued when a gap
/// cannot be covered by CommitFull fetches (evicted everywhere).
struct SnapRequest {
  std::size_t wire_bytes() const { return 24; }
};

/// State-transfer reply: the donor's KV image + digest states plus the
/// per-replica executed frontier the image covers. Only a donor whose
/// executed set is prefix-closed for every replica answers, so `covered`
/// describes the image exactly.
struct SnapshotMsg {
  kv::Snapshot snap;
  std::uint64_t executed_count = 0;
  std::vector<std::pair<NodeId, std::uint64_t>> covered;
  std::size_t wire_bytes() const {
    return 48 + snap.wire_bytes() + 16 * covered.size();
  }
};

class EPaxosNode : public kv::ReplicaNode {
 public:
  EPaxosNode(std::vector<NodeId> replicas, Config cfg);

  void on_message(const simnet::Message& m) override;

  /// Local submission path for tests.
  void submit(kv::Request r);

  /// Probes every peer for instances this replica missed.
  void resync();

  // Store, digest, counters and hooks: kv::ReplicaNode. on_commit fires
  // when a batch executes locally (its unit is executed_requests()), and
  // again for each batch a snapshot install replays.
  std::uint64_t executed_requests() const { return executed_; }
  /// Order-insensitive digest of executed writes — the agreement check that
  /// is meaningful for EPaxos (see kv::SetDigest).
  const kv::SetDigest& set_digest() const { return set_digest_; }

  /// Repair observability: retained instance records (the memory
  /// footprint repair_window bounds).
  std::size_t log_entries_retained() const { return repair_ring_.size(); }

 private:
  struct Instance {
    std::shared_ptr<const std::vector<kv::Request>> batch;
    std::vector<InstanceId> deps;
    /// Acceptors whose PreAcceptOk arrived, each once (dedup: PreAccepts
    /// are retransmitted after a partition, so acks can repeat).
    std::vector<NodeId> ok_from;
    bool live = false;  ///< a record occupies this lane slot
    bool committed = false;
    bool executed = false;
    bool own = false;  ///< this node is the command leader

    bool acked_by(NodeId acceptor) const {
      return std::ranges::find(ok_from, acceptor) != ok_from.end();
    }
    /// Frees the slot. Its vectors keep their capacity for the next record.
    void reset();
  };

  /// One command leader's instance records on this replica, with their
  /// repair frontiers (DESIGN.md §7.3): a ring of slots indexed by
  /// sequence number from `base`. A seq below `base` is pruned, and one at
  /// or above it whose slot is not live has no record. Records leave only
  /// from the front, so the ring keeps its capacity and allocates only
  /// when a record lands past its end.
  struct Lane {
    /// The live record of `seq`, or null.
    Instance* find(std::uint64_t seq);
    /// The record of `seq`, made live if absent. Precondition: seq >= base.
    Instance& make(std::uint64_t seq);
    /// Frees every slot up to `upto` and moves `base` past it.
    void drop_through(std::uint64_t upto);

    std::vector<Instance> ring;  ///< a power of two slots, or none yet
    std::size_t head = 0;        ///< ring index of `base`
    /// Records below this seq are pruned; stale retransmits for them are
    /// acked or ignored without resurrecting state.
    std::uint64_t base = 1;
    /// This replica's last PreAcceptOk to the leader, rewritten in place
    /// once the leader has dropped it (DESIGN.md §5.2).
    simnet::Payload ok_memo;

    // --- repair frontiers ---------------------------------------------
    /// Highest seq with every instance <= it committed locally; below the
    /// leader's max_committed_seen_ entry it marks a gap to repair.
    std::uint64_t contig = 0;
    /// Executed frontier (all seqs <= it executed locally) and highest
    /// executed seq: equal iff this replica's executed set is
    /// prefix-closed for the leader (the snapshot-donor eligibility test).
    std::uint64_t exec_contig = 0;
    std::uint64_t max_executed = 0;
    /// Bounded fetch rotation: attempts since the frontier last advanced,
    /// and the frontier they were counted at. One full rotation of targets
    /// without progress escalates to a SnapRequest.
    std::uint64_t gap_attempts = 0;
    std::uint64_t gap_at = 0;
  };

  /// A crash loses the pending batch; committed instances survive (the
  /// durable log).
  void on_crash() override;
  /// A restarted replica probes its peers for the instances it missed.
  void on_recover() override;
  void flush_batch();
  void handle_pre_accept(NodeId src, const PreAccept& pa);
  void send_pre_accept_ok(NodeId leader, const PreAccept& pa);
  void handle_pre_accept_ok(NodeId src, const PreAcceptOk& ok);
  void handle_commit(const Commit& c);
  void handle_fetch(NodeId src, const Fetch& f);
  void handle_commit_full(const CommitFull& cf);
  void handle_snap_request(NodeId src);
  void handle_snapshot(const SnapshotMsg& s);
  void register_commit(const InstanceId& id);
  void retry_blocked();
  void arm_repair_timer();
  /// Returns true when the instance is (now or already) executed.
  bool try_execute(const InstanceId& id);
  void execute(const InstanceId& id);
  void advance_exec_contig(NodeId replica);
  /// Erases executed, batch-evicted records at the front of `replica`'s
  /// lane (everything at or below the executed frontier that no longer
  /// serves repair) and advances its base.
  void prune_instances(NodeId replica);
  /// `replica`'s lane. The first call makes every replica's, so a
  /// reference to one lane survives looking up another.
  Lane& lane(NodeId replica);
  /// The record of `id`, made live if absent. Precondition: !pruned(id).
  Instance& record(const InstanceId& id) {
    return lane(id.replica).make(id.seq);
  }
  /// The live record of `id`, or null (pruned, or never made here).
  Instance* find(const InstanceId& id) {
    return id.replica < lanes_.size() ? lanes_[id.replica].find(id.seq)
                                      : nullptr;
  }
  bool pruned(const InstanceId& id) const {
    return id.replica < lanes_.size() && id.seq < lanes_[id.replica].base;
  }
  std::size_t fast_quorum() const;

  std::vector<NodeId> replicas_;
  Config cfg_;
  std::uint64_t next_seq_ = 1;
  /// Requests staged for the next instance. Its batch is a copy, so this
  /// vector keeps its capacity.
  std::vector<kv::Request> pending_;
  /// One per command leader, indexed by node id; empty until first use.
  std::vector<Lane> lanes_;
  /// Interfering instances not yet committed, for dependency collection.
  std::vector<InstanceId> active_interfering_;
  /// Committed instances parked on uncommitted dependencies.
  std::vector<InstanceId> blocked_;

  // --- repair state -------------------------------------------------------
  /// Per command leader: the highest seq known committed anywhere. A map,
  /// not a lane field: the repair timer walks it, so its iteration order
  /// is the order of the repair sends.
  std::unordered_map<NodeId, std::uint64_t> max_committed_seen_;
  /// Own instances not yet committed, oldest first, with their proposal
  /// times — the repair timer retransmits PreAccepts lost to a partition.
  std::deque<std::pair<InstanceId, Time>> own_uncommitted_;
  /// Executed instances still holding their batch for peer repair (FIFO,
  /// bounded by cfg_.repair_window).
  std::deque<InstanceId> repair_ring_;
  bool repair_timer_armed_ = false;
  /// This replica's own latest committed seq (answer to SeqProbe).
  std::uint64_t own_committed_ = 0;

  kv::SetDigest set_digest_;
  std::uint64_t executed_ = 0;
  bool batch_timer_armed_ = false;
};

}  // namespace canopus::epaxos

CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::PreAccept, kEpaxosPreAccept);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::PreAcceptOk, kEpaxosPreAcceptOk);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::Commit, kEpaxosCommit);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::Fetch, kEpaxosFetch);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::CommitFull, kEpaxosCommitFull);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::SeqProbe, kEpaxosSeqProbe);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::SeqInfo, kEpaxosSeqInfo);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::SnapRequest, kEpaxosSnapRequest);
CANOPUS_REGISTER_PAYLOAD(canopus::epaxos::SnapshotMsg, kEpaxosSnapshot);
