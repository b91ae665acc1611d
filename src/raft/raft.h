// RaftNode: one member of one Raft group.
//
// This is a full crash-stop Raft (Ongaro & Ousterhout, USENIX ATC '14):
// randomized election timeouts, term-checked voting with the up-to-date-log
// rule, AppendEntries with the consistency check and follower log repair,
// quorum commit advancement, and heartbeats.
//
// It is deliberately NOT a simnet::Process: a single physical node hosts
// many protocol components (Canopus runs one Raft group per super-leaf
// member, §4.3), so the owning Process routes incoming WireMsgs to the
// right group and lends it its NetHandle for outgoing ones, as it does the
// reliable-broadcast substrates.
//
// Canopus-specific usage notes (§4.3, §4.5):
//  * For reliable broadcast, every super-leaf member creates a group where
//    it is the bootstrap leader and its peers are followers; broadcasting is
//    proposing to one's own group.
//  * The heartbeat/election machinery doubles as the paper's failure
//    detector inside a super-leaf.
#pragma once

#include <functional>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "raft/messages.h"
#include "simnet/payload.h"
#include "simnet/network.h"

namespace canopus::raft {

enum class Role { kFollower, kCandidate, kLeader };

/// Election timeouts are drawn uniformly from [min, max).
inline constexpr Time kElectionTimeoutMin = 150 * kMillisecond;
inline constexpr Time kElectionTimeoutMax = 300 * kMillisecond;
/// Minimum quiet time (no replication progress and no recent retransmit)
/// before a heartbeat escalates to a full log retransmit for a lagging
/// peer. Protects briefly-backlogged peers from a retransmit spiral while
/// still repairing genuinely lossy/recovered followers.
inline constexpr Time kRepairTimeout = 75 * kMillisecond;

struct Options {
  Time heartbeat_interval = 15 * kMillisecond;
  /// Log compaction (Raft §7): once more than `compaction_threshold`
  /// applied entries are retained, the node snapshots its state machine
  /// (via Callbacks::make_snapshot) and discards the applied prefix,
  /// keeping `compaction_keep` trailing entries so slightly-lagging
  /// followers are still repaired by ordinary AppendEntries instead of a
  /// state transfer. 0 disables compaction (unbounded log, the
  /// pre-snapshot behaviour). Compaction itself is local — no messages,
  /// no CPU charge — so enabling it never perturbs a healthy trace.
  std::size_t compaction_threshold = 1024;
  std::size_t compaction_keep = 256;
};

class RaftNode {
 public:
  struct Callbacks {
    /// Applied exactly once per committed entry, in log order, on every
    /// live member.
    std::function<void(LogIndex, const LogEntry&)> on_commit;
    /// Fired when an election no-op commits, identifying the leader that
    /// appended it. The signal is log-ordered: every member observes it at
    /// the same position relative to committed entries, which makes it
    /// usable as an agreed failure-detection point (Canopus §4.3/§4.6
    /// exclusion semantics). May be null.
    std::function<void(NodeId leader, Term term)> on_noop_commit;
    /// Compaction: captures the owner's state machine at the apply
    /// frontier. Called when the log crosses compaction_threshold; the
    /// returned payload is cached and shipped in InstallSnapshot to
    /// followers that fell behind the compaction base. May be null (an
    /// empty snapshot is installed — the owner's state lives elsewhere).
    std::function<simnet::Payload()> make_snapshot;
    /// Install: replaces the owner's state machine with `snapshot` (all
    /// entries <= the snapshot index were covered by it and will never be
    /// surfaced via on_commit on this member). May be null.
    std::function<void(LogIndex index, const simnet::Payload& snapshot)>
        install_snapshot;
  };

  /// WireMsgs leave through `net` from `self`. Consecutive identical
  /// messages go out as one payload sent again, so a fan-out shares one
  /// allocation, and a different message reuses that allocation when no
  /// receiver still holds it.
  RaftNode(GroupId group, NodeId self, std::vector<NodeId> members,
           simnet::ClockHandle sim, simnet::NetHandle net, Callbacks cb,
           Options opt = {});
  ~RaftNode();

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Starts the node. If `bootstrap_as_leader`, the node assumes leadership
  /// of term 1 immediately (used for the per-node broadcast groups where
  /// the initial leader is fixed by construction, §4.3).
  void start(bool bootstrap_as_leader = false);

  /// Stops all timers (models a crash; a stopped node ignores messages).
  void stop();
  bool stopped() const { return stopped_; }

  /// Proposes a payload for replication. Returns the assigned log index if
  /// this node is the leader, std::nullopt otherwise. Replication shares
  /// the payload allocation across all followers.
  std::optional<LogIndex> propose(simnet::Payload payload);

  /// Feeds an incoming wire message (already routed to this group).
  void on_message(NodeId src, const WireMsg& m);

  /// Single-server membership change: removes `peer` from the group.
  /// The caller is responsible for invoking this at an agreed point on all
  /// live members (Canopus applies membership updates at the end of the
  /// consensus cycle that carried them, §4.6). Quorum size shrinks
  /// accordingly; removing self stops the node.
  void remove_member(NodeId peer);

  /// Single-server membership change: adds `peer` to the group. The new
  /// follower's log is repaired by the ordinary AppendEntries backoff.
  void add_member(NodeId peer);

  /// Dissolution catch-up for the reliable-broadcast layer (§4.3). A
  /// dissolver's kGroupDissolved notice names the group's final committed
  /// entry (last_log_index/last_log_term) and may carry the entries after
  /// prev_log_index. Adopts those entries, then commits through the final
  /// entry if this log holds it: by Log Matching the log then equals the
  /// dissolver's up to there. Returns false when the log still lacks it
  /// (this node missed the replacement leader's no-op); the caller then
  /// asks the dissolver for the entries after commit_index().
  bool finish_dissolution(const WireMsg& notice);

  /// The kGroupDissolved notice this stopped group sends a straggler in
  /// reply to `request`: its commit point, plus the committed entries
  /// after the requester's commit index when `request` asks for the tail.
  /// Returns false when that tail was compacted away: nothing is sent.
  bool dissolution_notice(const WireMsg& request, WireMsg& notice) const;

  // --- observers -------------------------------------------------------
  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  NodeId leader_hint() const { return leader_; }
  Term term() const { return term_; }
  LogIndex commit_index() const { return commit_; }
  LogIndex last_index() const { return log_.last_index(); }
  GroupId group() const { return group_; }
  NodeId self() const { return self_; }

  /// Time since the last message from the current leader (failure-detector
  /// input for the layers above).
  Time time_since_leader_contact() const;

  /// Compaction observability: retained log entries and installs received.
  std::size_t log_entries_retained() const { return log_.size(); }
  std::uint64_t snapshots_installed() const { return snapshots_installed_; }

 private:
  /// A group member and the leader's replication state for it.
  struct Peer {
    NodeId id = kInvalidNode;
    LogIndex next_index = 1;
    LogIndex match_index = 0;
    /// Highest index already put on the wire. Prevents the resend
    /// amplification spiral: without it, every propose/commit retransmits
    /// all unacked (possibly huge) entries, melting a briefly-backlogged
    /// peer's CPU further.
    LogIndex sent_up_to = 0;
    Time last_progress = 0;  ///< last match-index advance
    Time last_repair = 0;    ///< last full retransmit
  };

  /// The member `id`, or null. A commit can re-enter remove_member, so no
  /// Peer reference is held across advance_commit or apply_committed.
  Peer* find_peer(NodeId id);

  void become_follower(Term term);
  void become_candidate();
  void become_leader(bool append_noop);
  void reset_election_timer();
  void stop_timers();
  void broadcast_heartbeats();
  /// A message of this group and term; the caller fills the rest.
  WireMsg header(MsgType type) const;
  /// Sends `peer` every entry from `from` on, anchored at `from - 1`, or
  /// the snapshot when `from` was compacted away. A repair resends from
  /// next_index; propose sends only what is not yet on the wire.
  void send_entries(Peer& peer, LogIndex from);
  /// Cheap commit-index notification (no entries, prev = match index).
  void notify_commit(const Peer& peer);
  void advance_commit();
  void apply_committed();
  std::size_t quorum() const { return peers_.size() / 2 + 1; }

  void handle_request_vote(NodeId src, const WireMsg& m);
  void handle_vote_reply(NodeId src, const WireMsg& m);
  /// The receiver rules AppendEntries and InstallSnapshot share: a message
  /// from a stale term gets a failed AppendReply and returns false;
  /// otherwise `src` is this term's leader.
  bool accept_leader(NodeId src, const WireMsg& m);
  void handle_append_entries(NodeId src, const WireMsg& m);
  void handle_append_reply(NodeId src, const WireMsg& m);
  void handle_install_snapshot(NodeId src, const WireMsg& m);
  void send_install_snapshot(Peer& peer);
  void maybe_compact();
  /// Sends `m` carrying the log entries [first, last] (none when
  /// first > last). Reuses the last payload sent when `m` would equal it
  /// on every wire field, and otherwise rewrites that payload in place
  /// when nothing else holds it.
  void send_wire(NodeId dst, WireMsg m, LogIndex first = 1, LogIndex last = 0);

  GroupId group_;
  NodeId self_;
  /// The members, self included, in membership order.
  std::vector<Peer> peers_;
  simnet::ClockHandle sim_;
  simnet::NetHandle net_;
  Callbacks cb_;
  Options opt_;
  /// Election-jitter stream, seeded from (trial seed, group, self) only:
  /// under sharded execution a shared simulator-wide stream would make the
  /// jitter depend on the event interleaving; this one depends only on the
  /// node's own draw history.
  Rng rng_;

  Role role_ = Role::kFollower;
  Term term_ = 0;
  NodeId voted_for_ = kInvalidNode;
  NodeId leader_ = kInvalidNode;
  Log log_;
  LogIndex commit_ = 0;
  LogIndex applied_ = 0;
  Time last_leader_contact_ = 0;

  // Compaction state: the cached snapshot at the capture frontier (shipped
  // verbatim to every follower that needs it — one capture, N sends). The
  // snapshot is taken at the apply frontier, so snap_index_ >= the log base
  // always holds and installs fast-forward past every compacted entry.
  LogIndex snap_index_ = 0;
  Term snap_term_ = 0;
  simnet::Payload snap_payload_;
  std::uint64_t snapshots_installed_ = 0;
  int apply_depth_ = 0;  // reentrancy guard: compact only at the outer frame

  // Candidate state.
  std::unordered_set<NodeId> votes_;

  /// The last message sent (see send_wire). Its sole holder once every
  /// receiver has dropped its copy, and then rewritten for the next one.
  simnet::Payload last_sent_;

  simnet::EventId election_timer_ = simnet::kInvalidEvent;
  simnet::EventId heartbeat_timer_ = simnet::kInvalidEvent;
  bool stopped_ = true;
};

}  // namespace canopus::raft
