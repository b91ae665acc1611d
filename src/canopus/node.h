// CanopusNode: one pnode running the full Canopus protocol.
//
// Responsibilities (paper section in parentheses):
//  * consensus cycle / round state machine over the LOT (§4.2)
//  * super-leaf reliable broadcast via per-node Raft groups (§4.3)
//  * self-synchronization of cycle starts (§4.4)
//  * representative selection + modulo vnode assignment + redundant
//    fetching with emulator fallback (§4.5, §4.6)
//  * emulation-table maintenance via piggybacked membership updates (§4.6)
//  * linearizable reads by delaying them 1-2 cycles and splicing them into
//    the node's own request-set positions (§5)
//  * pipelining of consensus cycles with strictly ordered commits (§7.1)
//  * optional write leases for immediate reads of uncontended keys (§7.2)
//
// A CanopusNode stalls — by design — when its super-leaf loses a majority
// or when some vnode has no live emulators (§6 Liveness); it never returns
// a wrong result.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "canopus/config.h"
#include "canopus/lot.h"
#include "canopus/messages.h"
#include "kv/replica.h"
#include "kv/types.h"
#include "rbcast/broadcast.h"
#include "rbcast/rbcast.h"

namespace canopus::core {

class CanopusNode : public kv::ReplicaNode {
 public:
  CanopusNode(std::shared_ptr<const lot::Lot> lot, Config cfg);

  void on_start() override;
  void on_message(const simnet::Message& m) override;

  /// Local submission path for examples/tests (bypasses the client wire
  /// protocol; replies surface via the commit hook only).
  void submit(kv::Request r) { intake({&r, 1}); }

  /// Crash-stop this node (also silences its broadcast groups).
  void crash();

  /// Rejoin after a crash (the PR 10 state-transfer path). The node enters
  /// joining mode: it discards all volatile and committed state, asks a
  /// live super-leaf sibling to sponsor it, and — once the sponsor's kJoin
  /// membership update commits — installs the sponsor's snapshot, rebuilds
  /// its broadcast groups, commit-catches-up on the in-flight cycle window,
  /// and resumes contributing from an agreed activation cycle.
  void recover();
  bool crashed() const { return crashed_; }
  /// True between recover() and the snapshot install: the node is not yet
  /// a comparable member (its digest chain restarts at the install).
  bool joining() const { return joining_; }

  // --- observers --------------------------------------------------------
  // Store, digest, counters and the on_commit/on_snapshot_install hooks
  // live in kv::ReplicaNode. on_commit fires with the cycle's globally
  // ordered writes (identical on every live node — the Agreement
  // property); a rejoin snapshot install fires on_snapshot_install.
  CycleId last_committed_cycle() const { return last_committed_; }
  const lot::EmulationTable& emulation_table() const { return emu_; }
  const lot::Lot& lot() const { return *lot_; }
  bool is_representative() const;

  /// Cycle states retained in history: the footprint prune_history bounds.
  std::size_t log_entries_retained() const { return cycles_.size(); }

  /// Current failure-detector view of the own super-leaf (§4.3).
  const std::vector<NodeId>& live_peers() const { return sl_live_; }

  /// Fired when a read is served, with the value returned to the client
  /// (linearizability checkers hang off this).
  std::function<void(const kv::Request&, std::uint64_t value)> on_read;

  /// Diagnostics hook (tests): fired when round r of a cycle completes.
  std::function<void(CycleId, RoundId)> on_round_done;

 private:
  struct PendingRead {
    kv::Request req;
    std::size_t pos = 0;  ///< # own writes buffered before this read
  };

  struct FetchState {
    int attempt = 0;
    simnet::EventId timer = simnet::kInvalidEvent;
  };

  struct CycleState {
    bool started = false;
    bool complete = false;
    bool committed = false;
    RoundId rounds_done = 0;
    /// acc[r]: child-vnode states consumed by round r, at most one per
    /// vnode, in arrival order (complete_round sorts them).
    std::vector<std::vector<proto::Proposal>> acc;
    /// state[r]: merged state of the height-r ancestor; state[0] is the
    /// node's own round-1 (leaf) proposal.
    std::vector<std::optional<proto::Proposal>> state;
    /// Reads snapshotted into this cycle, spliced at commit (§5).
    std::vector<PendingRead> reads;
    std::size_t own_writes = 0;
    /// # writes globally ordered before this node's own request set —
    /// accumulated during merges, used to position reads.
    std::size_t own_prefix = 0;
    /// Outstanding representative fetches, keyed by vnode.
    std::map<VnodeId, FetchState> fetches;
    /// Remote proposal-requests we could not answer yet (§4.7 event 3).
    std::map<VnodeId, std::vector<NodeId>> parked_requests;

    /// Returns every field to its default, keeping the vectors' capacity,
    /// so that a pruned cycle's state can serve a later cycle (see
    /// cycle()).
    void reset();
  };

  // --- message handlers ---------------------------------------------------
  /// Client intake, shared by submit() and client batches.
  void intake(std::span<const kv::Request> reqs);
  void handle_proposal_request(NodeId src, const proto::ProposalRequest& pr);
  void handle_fetched_proposal(const proto::Proposal& p);
  void handle_rb_deliver(NodeId origin, const simnet::Payload& payload);
  void handle_peer_failed(NodeId peer);

  // --- rejoin (state transfer) --------------------------------------------
  void make_broadcast();
  void enter_joining();
  void send_join_request();
  void handle_join_request(const proto::JoinRequest& jr);
  void handle_join_ack(const proto::JoinAck& ack);
  void send_join_ack(NodeId joiner, CycleId snapshot_cycle, CycleId act);
  CycleId active_from(NodeId member) const {
    const auto it = active_from_.find(member);
    return it == active_from_.end() ? 0 : it->second;
  }

  // --- cycle machinery ----------------------------------------------------
  CycleState& cycle(CycleId c);
  void maybe_start_next_cycle(bool timer_fired = false);
  void start_cycle(CycleId c);
  void add_proposal(CycleId c, const proto::Proposal& p);
  void try_complete_round(CycleId c, RoundId r);
  void complete_round(CycleId c, RoundId r);
  void begin_fetches(CycleId c, RoundId r);
  void issue_fetch(CycleId c, VnodeId v);
  void answer_parked(CycleId c, RoundId r);
  void try_commit();
  void commit_cycle(CycleId c);
  void prune_history();
  void drop_fetch_timers(CycleState& cs);
  void arm_pipeline_timer();

  // --- reads & leases (§5, §7.2) -------------------------------------------
  void enqueue_read(kv::Request r);
  void answer_read(const kv::Request& r);
  bool lease_active(std::uint64_t key) const;

  /// The representatives: a prefix of sl_live_.
  std::span<const NodeId> current_reps() const;
  int rep_index() const;  ///< position among reps, or -1

  std::shared_ptr<const lot::Lot> lot_;
  Config cfg_;
  lot::EmulationTable emu_;
  std::unique_ptr<rbcast::Broadcast> rb_;

  /// Local, failure-detector-driven view of the own super-leaf's live
  /// members (exclusions are consistently ordered by the no-op-commit rule,
  /// see rbcast.cpp). The emulation table is updated only at cycle commits.
  std::vector<NodeId> sl_live_;

  std::vector<kv::Request> pending_writes_;
  std::vector<PendingRead> pending_reads_;
  std::vector<proto::MembershipUpdate> pending_membership_;

  std::map<CycleId, CycleState> cycles_;
  /// The last pruned cycle's map node, reset, reused by the next new cycle.
  std::map<CycleId, CycleState>::node_type spare_cycle_;
  /// complete_round's sorted inputs (pointers into acc), reused per round.
  std::vector<const proto::Proposal*> round_inputs_;
  CycleId last_started_ = 0;
  CycleId last_committed_ = 0;
  /// Outside prompting seen for a not-yet-started cycle (§4.4).
  bool prompted_ = false;

  /// key -> last cycle in which its write lease is active (§7.2).
  std::unordered_map<std::uint64_t, CycleId> leases_;

  // --- rejoin state -------------------------------------------------------
  /// True between recover() and the JoinAck install: the node only listens
  /// for the ack and retries JoinRequests on a rotation timer.
  bool joining_ = false;
  int join_attempt_ = 0;
  simnet::EventId join_timer_ = simnet::kInvalidEvent;
  /// First cycle this node contributes a round-1 proposal to (0 for
  /// original members; the JoinAck's first_cycle after a rejoin).
  CycleId own_active_from_ = 0;
  /// Per super-leaf member: first cycle whose round 1 requires that
  /// member's proposal. Set at the kJoin commit — an agreed point — so
  /// every node evaluates round-1 completeness identically even while the
  /// join was racing in-flight cycles.
  std::unordered_map<NodeId, CycleId> active_from_;
  /// Sponsor side: joiners whose kJoin update this node proposed; the ack
  /// (with the state snapshot) ships when the update commits.
  std::vector<NodeId> pending_joiners_;
  /// When each excluded pnode's kLeave committed locally — re-admission
  /// waits out a grace period so the exclusion's tail (group elections,
  /// log drains) settles first.
  std::unordered_map<NodeId, Time> excluded_at_;
  /// A stale kLeave for *this* node committed after its rejoin: re-enter
  /// joining once the commit loop unwinds (see try_commit).
  bool pending_rejoin_ = false;

  simnet::EventId pipeline_timer_ = simnet::kInvalidEvent;
  bool crashed_ = false;
  /// Consecutive cycles this node started with nothing to propose; bounds
  /// idle pipeline churn (see maybe_start_next_cycle).
  std::size_t empty_streak_ = 0;
};

}  // namespace canopus::core
