#include "raft/raft.h"

#include <algorithm>
#include <cassert>

namespace canopus::raft {

namespace {
/// Every wire field of a WireMsg except its entries: send_wire's memo key.
bool same_header(const WireMsg& a, const WireMsg& b) {
  return a.group == b.group && a.type == b.type && a.term == b.term &&
         a.last_log_index == b.last_log_index &&
         a.last_log_term == b.last_log_term &&
         a.vote_granted == b.vote_granted &&
         a.prev_log_index == b.prev_log_index &&
         a.prev_log_term == b.prev_log_term &&
         a.leader_commit == b.leader_commit && a.success == b.success &&
         a.match_index == b.match_index &&
         a.snapshot.tag() == b.snapshot.tag() &&
         a.snapshot.raw() == b.snapshot.raw() &&
         a.snapshot_bytes == b.snapshot_bytes;
}

bool same_entry(const LogEntry& a, const LogEntry& b) {
  return a.term == b.term && a.payload.tag() == b.payload.tag() &&
         a.payload.raw() == b.payload.raw() && a.bytes == b.bytes &&
         a.is_noop == b.is_noop && a.leader == b.leader;
}
}  // namespace

RaftNode::RaftNode(GroupId group, NodeId self, std::vector<NodeId> members,
                   simnet::ClockHandle sim, Callbacks cb, Options opt)
    : group_(group),
      self_(self),
      members_(std::move(members)),
      sim_(sim),
      cb_(std::move(cb)),
      opt_(opt),
      rng_(derive_seed(derive_seed(sim.seed(), 0x4a47ULL),
                       (std::uint64_t{group} << 32) ^ self)) {
  assert(std::find(members_.begin(), members_.end(), self_) != members_.end());
  next_index_.assign(members_.size(), 1);
  match_index_.assign(members_.size(), 0);
  sent_up_to_.assign(members_.size(), 0);
  last_progress_.assign(members_.size(), 0);
  last_repair_.assign(members_.size(), 0);
}

RaftNode::~RaftNode() { stop_timers(); }

void RaftNode::start(bool bootstrap_as_leader) {
  stopped_ = false;
  if (bootstrap_as_leader) {
    term_ = 1;
    become_leader(/*append_noop=*/false);
  } else {
    become_follower(term_);
  }
}

void RaftNode::stop() {
  stopped_ = true;
  stop_timers();
}

void RaftNode::stop_timers() {
  if (election_timer_ != simnet::kInvalidEvent) {
    sim_.cancel(election_timer_);
    election_timer_ = simnet::kInvalidEvent;
  }
  if (heartbeat_timer_ != simnet::kInvalidEvent) {
    sim_.cancel(heartbeat_timer_);
    heartbeat_timer_ = simnet::kInvalidEvent;
  }
}

Time RaftNode::time_since_leader_contact() const {
  return sim_.now() - last_leader_contact_;
}

void RaftNode::reset_election_timer() {
  if (election_timer_ != simnet::kInvalidEvent) sim_.cancel(election_timer_);
  constexpr auto kSpan =
      static_cast<std::uint64_t>(kElectionTimeoutMax - kElectionTimeoutMin);
  const Time timeout =
      kElectionTimeoutMin + static_cast<Time>(rng_.below(kSpan));
  election_timer_ = sim_.after(timeout, [this] { become_candidate(); });
}

void RaftNode::become_follower(Term term) {
  if (term > term_) {
    term_ = term;
    voted_for_ = kInvalidNode;
  }
  role_ = Role::kFollower;
  if (heartbeat_timer_ != simnet::kInvalidEvent) {
    sim_.cancel(heartbeat_timer_);
    heartbeat_timer_ = simnet::kInvalidEvent;
  }
  reset_election_timer();
}

void RaftNode::become_candidate() {
  if (stopped_) return;
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = self_;
  votes_.clear();
  votes_.insert(self_);
  reset_election_timer();

  if (votes_.size() >= quorum()) {  // single-member group
    become_leader(/*append_noop=*/true);
    return;
  }
  WireMsg m;
  m.group = group_;
  m.type = MsgType::kRequestVote;
  m.term = term_;
  m.last_log_index = log_.last_index();
  m.last_log_term = log_.last_term();
  for (NodeId peer : members_) {
    if (peer != self_) send_wire(peer, m);
  }
}

void RaftNode::become_leader(bool append_noop) {
  role_ = Role::kLeader;
  leader_ = self_;
  if (election_timer_ != simnet::kInvalidEvent) {
    sim_.cancel(election_timer_);
    election_timer_ = simnet::kInvalidEvent;
  }
  if (append_noop) {
    // Raft §5.4.2: entries from prior terms are only committed indirectly,
    // by committing an entry of the current term on top of them.
    log_.append(LogEntry{term_, {}, 0, /*is_noop=*/true, self_});
  }
  for (std::size_t i = 0; i < members_.size(); ++i) {
    next_index_[i] = log_.last_index() + 1;
    match_index_[i] = members_[i] == self_ ? log_.last_index() : 0;
    sent_up_to_[i] = 0;  // nothing sent yet in this term
  }
  advance_commit();  // single-member group: the no-op commits immediately
  if (cb_.on_leader_change) cb_.on_leader_change(self_, term_);
  broadcast_heartbeats();
}

void RaftNode::broadcast_heartbeats() {
  if (stopped_ || role_ != Role::kLeader) return;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const NodeId peer = members_[i];
    if (peer == self_) continue;
    if (match_index_[i] < log_.last_index() &&
        sim_.now() - std::max(last_progress_[i], last_repair_[i]) >=
            kRepairTimeout) {
      // The peer made no replication progress for a while: repair with a
      // full retransmit. Merely-slow peers keep advancing match_index and
      // are never retransmitted to — that would only deepen their backlog.
      last_repair_[i] = sim_.now();
      send_append(peer);
    } else {
      notify_commit(peer);  // pure liveness + commit index
    }
  }
  heartbeat_timer_ =
      sim_.after(opt_.heartbeat_interval, [this] { broadcast_heartbeats(); });
}

void RaftNode::send_append(NodeId peer) {
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), peer) - members_.begin());
  if (next_index_[pos] <= log_.base_index()) {
    // The entries this peer needs were compacted away: state transfer.
    send_install_snapshot(peer);
    return;
  }
  WireMsg m;
  m.group = group_;
  m.type = MsgType::kAppendEntries;
  m.term = term_;
  m.prev_log_index = next_index_[pos] - 1;
  m.prev_log_term = log_.term_at(m.prev_log_index);
  m.leader_commit = commit_;
  sent_up_to_[pos] = log_.last_index();
  send_wire(peer, std::move(m), next_index_[pos], log_.last_index());
}

void RaftNode::send_new_entries(NodeId peer) {
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), peer) - members_.begin());
  const LogIndex start =
      std::max(next_index_[pos], sent_up_to_[pos] + 1);
  if (start > log_.last_index()) return;  // nothing new on the wire
  if (start <= log_.base_index()) {
    send_install_snapshot(peer);
    return;
  }
  WireMsg m;
  m.group = group_;
  m.type = MsgType::kAppendEntries;
  m.term = term_;
  m.prev_log_index = start - 1;
  m.prev_log_term = log_.term_at(m.prev_log_index);
  m.leader_commit = commit_;
  sent_up_to_[pos] = log_.last_index();
  send_wire(peer, std::move(m), start, log_.last_index());
}

void RaftNode::notify_commit(NodeId peer) {
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), peer) - members_.begin());
  WireMsg m;
  m.group = group_;
  m.type = MsgType::kAppendEntries;
  m.term = term_;
  // Anchor at the committed prefix the peer plausibly holds (entries
  // already put on the wire this term, or acked): a follower only advances
  // its commit up to the prefix an AppendEntries VERIFIED, so anchoring at
  // match_index alone would delay commit notification of just-sent entries
  // by a full ack round-trip. If the peer's log disagrees at the anchor
  // (it missed the entries), the consistency check fails and the ordinary
  // nack/repair path takes over; if it agrees, the Log Matching property
  // makes committing up to the anchor safe. No payload travels.
  m.prev_log_index = std::min(
      commit_, std::max(match_index_[pos], sent_up_to_[pos]));
  // Never anchor inside the compacted prefix — the term there is unknown.
  // A peer that genuinely lags behind the base fails the consistency check
  // and is repaired (ultimately by InstallSnapshot) via the nack path.
  m.prev_log_index = std::max(m.prev_log_index, log_.base_index());
  m.prev_log_term = log_.term_at(m.prev_log_index);
  m.leader_commit = commit_;
  send_wire(peer, std::move(m));
}

std::optional<LogIndex> RaftNode::propose(simnet::Payload payload,
                                          std::size_t bytes) {
  if (stopped_ || role_ != Role::kLeader) return std::nullopt;
  log_.append(LogEntry{term_, std::move(payload), bytes});
  const LogIndex idx = log_.last_index();
  const auto self_pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), self_) - members_.begin());
  match_index_[self_pos] = idx;
  next_index_[self_pos] = idx + 1;
  for (NodeId peer : members_) {
    if (peer != self_) send_new_entries(peer);
  }
  advance_commit();  // single-member groups commit immediately
  return idx;
}

void RaftNode::on_message(NodeId src, const WireMsg& m) {
  if (stopped_) return;
  if (m.term > term_) become_follower(m.term);
  switch (m.type) {
    case MsgType::kRequestVote:
      handle_request_vote(src, m);
      break;
    case MsgType::kVoteReply:
      handle_vote_reply(src, m);
      break;
    case MsgType::kAppendEntries:
      handle_append_entries(src, m);
      break;
    case MsgType::kAppendReply:
      handle_append_reply(src, m);
      break;
    case MsgType::kInstallSnapshot:
      handle_install_snapshot(src, m);
      break;
    case MsgType::kGroupDissolved:
    case MsgType::kDissolvedTailRequest:
      break;  // handled by the layer above (rbcast)
  }
}

void RaftNode::handle_request_vote(NodeId src, const WireMsg& m) {
  WireMsg reply;
  reply.group = group_;
  reply.type = MsgType::kVoteReply;
  reply.term = term_;
  reply.vote_granted = false;

  const bool log_ok =
      m.last_log_term > log_.last_term() ||
      (m.last_log_term == log_.last_term() &&
       m.last_log_index >= log_.last_index());
  if (m.term >= term_ && log_ok &&
      (voted_for_ == kInvalidNode || voted_for_ == src)) {
    voted_for_ = src;
    reply.vote_granted = true;
    reset_election_timer();
  }
  send_wire(src, std::move(reply));
}

void RaftNode::handle_vote_reply(NodeId src, const WireMsg& m) {
  if (role_ != Role::kCandidate || m.term != term_ || !m.vote_granted) return;
  votes_.insert(src);
  if (votes_.size() >= quorum()) become_leader(/*append_noop=*/true);
}

void RaftNode::handle_append_entries(NodeId src, const WireMsg& m) {
  WireMsg reply;
  reply.group = group_;
  reply.type = MsgType::kAppendReply;
  reply.term = term_;
  reply.success = false;

  if (m.term < term_) {
    send_wire(src, std::move(reply));
    return;
  }
  // Valid leader for this term.
  if (role_ != Role::kFollower) become_follower(m.term);
  if (leader_ != src) {
    leader_ = src;
    if (cb_.on_leader_change) cb_.on_leader_change(src, term_);
  }
  last_leader_contact_ = sim_.now();
  reset_election_timer();

  // Consistency check. An anchor inside our compacted prefix is consistent
  // by construction: everything at or below the base was committed and
  // covered by the installed snapshot (Log Matching makes re-checking it
  // unnecessary — and impossible, the terms are gone).
  if (m.prev_log_index > log_.last_index() ||
      (m.prev_log_index >= log_.base_index() &&
       log_.term_at(m.prev_log_index) != m.prev_log_term)) {
    // Hint the leader with our last index so backoff jumps straight to the
    // end of our log instead of spiralling one entry per round trip — the
    // difference between O(1) and O(log-length) round trips when a fresh
    // member (empty log) joins a long-lived group.
    reply.match_index = log_.last_index();
    send_wire(src, std::move(reply));
    return;
  }

  // Append/repair: drop conflicting suffix, append new entries. Entries at
  // or below the compaction base are already covered by installed state.
  LogIndex idx = m.prev_log_index;
  for (const LogEntry& e : m.entries) {
    ++idx;
    if (idx <= log_.base_index()) continue;
    if (idx <= log_.last_index()) {
      if (log_.term_at(idx) == e.term) continue;  // already have it
      log_.truncate_after(idx - 1);
    }
    log_.append(e);
  }

  // Commit advance is bounded by the prefix this message VERIFIED
  // (prev_log_index + new entries), not by our last_index(): anything
  // beyond it can be a stale uncommitted tail from a deposed leader that
  // this check never compared against the current leader's log. Applying
  // it would diverge the state machine (Raft §5.3: commitIndex =
  // min(leaderCommit, index of last new entry)). The one-way-partition
  // fault scenario catches exactly this.
  const LogIndex verified = m.prev_log_index + m.entries.size();
  if (m.leader_commit > commit_) {
    commit_ = std::max(commit_, std::min(m.leader_commit, verified));
    apply_committed();
  }

  reply.success = true;
  reply.match_index = m.prev_log_index + m.entries.size();
  send_wire(src, std::move(reply));
}

void RaftNode::handle_append_reply(NodeId src, const WireMsg& m) {
  if (role_ != Role::kLeader || m.term != term_) return;
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), src) - members_.begin());
  if (pos >= members_.size()) return;
  if (m.success) {
    if (m.match_index > match_index_[pos]) {
      match_index_[pos] = m.match_index;
      last_progress_[pos] = sim_.now();
    }
    next_index_[pos] = std::max(next_index_[pos], match_index_[pos] + 1);
    advance_commit();
  } else {
    // Back off and retry the consistency check one entry earlier — or jump
    // straight past the follower's last index when its nack hints at one
    // (a follower can never match beyond its own log).
    LogIndex next = next_index_[pos] > 1 ? next_index_[pos] - 1 : 1;
    next = std::max<LogIndex>(1, std::min(next, m.match_index + 1));
    next_index_[pos] = next;
    sent_up_to_[pos] = next - 1;
    send_append(src);  // redirects to InstallSnapshot below the base
  }
}

void RaftNode::send_install_snapshot(NodeId peer) {
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), peer) - members_.begin());
  WireMsg m;
  m.group = group_;
  m.type = MsgType::kInstallSnapshot;
  m.term = term_;
  m.prev_log_index = snap_index_;
  m.prev_log_term = snap_term_;
  m.leader_commit = commit_;
  m.snapshot = snap_payload_;
  m.snapshot_bytes = snap_bytes_;
  next_index_[pos] = snap_index_ + 1;
  sent_up_to_[pos] = snap_index_;
  send_wire(peer, std::move(m));
}

void RaftNode::handle_install_snapshot(NodeId src, const WireMsg& m) {
  WireMsg reply;
  reply.group = group_;
  reply.type = MsgType::kAppendReply;
  reply.term = term_;
  reply.success = false;

  if (m.term < term_) {
    send_wire(src, std::move(reply));
    return;
  }
  if (role_ != Role::kFollower) become_follower(m.term);
  if (leader_ != src) {
    leader_ = src;
    if (cb_.on_leader_change) cb_.on_leader_change(src, term_);
  }
  last_leader_contact_ = sim_.now();
  reset_election_timer();

  const LogIndex s = m.prev_log_index;
  if (s <= commit_) {
    // Duplicate/stale install: we already hold (and applied) this prefix.
    reply.success = true;
    reply.match_index = commit_;
    send_wire(src, std::move(reply));
    return;
  }
  // Adopt the snapshot: it covers everything up to s, including any
  // uncommitted local tail (which a quorum never acked — safe to drop).
  log_.reset_to_snapshot(s, m.prev_log_term);
  commit_ = s;
  applied_ = s;
  snap_index_ = s;
  snap_term_ = m.prev_log_term;
  snap_payload_ = m.snapshot;
  snap_bytes_ = m.snapshot_bytes;
  ++snapshots_installed_;
  if (cb_.install_snapshot) cb_.install_snapshot(s, m.snapshot);

  reply.success = true;
  reply.match_index = s;
  send_wire(src, std::move(reply));
}

void RaftNode::send_wire(NodeId dst, WireMsg m, LogIndex first,
                         LogIndex last) {
  const std::size_t count = last >= first ? last - first + 1 : 0;
  const WireMsg* prev = last_sent_.as<WireMsg>();
  bool same = prev != nullptr && same_header(*prev, m) &&
              prev->entries.size() == count;
  for (std::size_t k = 0; same && k < count; ++k)
    same = same_entry(prev->entries[k], log_.at(first + k));
  if (!same) {
    m.entries.reserve(count);
    for (LogIndex i = first; i <= last; ++i) m.entries.push_back(log_.at(i));
    last_sent_bytes_ = m.wire_bytes();
    last_sent_ = simnet::Payload(std::move(m));
  }
  cb_.send(dst, last_sent_, last_sent_bytes_);
}

void RaftNode::maybe_compact() {
  if (opt_.compaction_threshold == 0) return;      // compaction disabled
  if (applied_ <= log_.base_index()) return;
  if (applied_ - log_.base_index() <= opt_.compaction_threshold) return;
  const LogIndex target = applied_ > opt_.compaction_keep
                              ? applied_ - opt_.compaction_keep
                              : 0;
  if (target <= log_.base_index()) return;
  // Capture at the apply frontier (the state the snapshot actually
  // represents), then discard the prefix while keeping compaction_keep
  // trailing entries so slightly-lagging followers avoid a state transfer.
  snap_index_ = applied_;
  snap_term_ = log_.term_at(applied_);
  snap_bytes_ = 0;
  snap_payload_ =
      cb_.make_snapshot ? cb_.make_snapshot(snap_bytes_) : simnet::Payload{};
  log_.compact_to(target);
}

void RaftNode::remove_member(NodeId peer) {
  const auto it = std::find(members_.begin(), members_.end(), peer);
  if (it == members_.end()) return;
  const auto pos = static_cast<std::size_t>(it - members_.begin());
  members_.erase(it);
  next_index_.erase(next_index_.begin() + static_cast<std::ptrdiff_t>(pos));
  match_index_.erase(match_index_.begin() + static_cast<std::ptrdiff_t>(pos));
  sent_up_to_.erase(sent_up_to_.begin() + static_cast<std::ptrdiff_t>(pos));
  last_progress_.erase(last_progress_.begin() +
                       static_cast<std::ptrdiff_t>(pos));
  last_repair_.erase(last_repair_.begin() + static_cast<std::ptrdiff_t>(pos));
  votes_.erase(peer);
  if (peer == self_) {
    stop();
    return;
  }
  // The quorum shrank: entries may now be committed.
  if (role_ == Role::kLeader) advance_commit();
}

void RaftNode::add_member(NodeId peer) {
  if (std::find(members_.begin(), members_.end(), peer) != members_.end())
    return;
  members_.push_back(peer);
  next_index_.push_back(log_.last_index() + 1);
  match_index_.push_back(0);
  sent_up_to_.push_back(0);
  last_progress_.push_back(sim_.now());
  last_repair_.push_back(0);
}

bool RaftNode::finish_dissolution(const WireMsg& m) {
  // The tail starts after the requester's commit index, so its anchor is
  // committed here and matches unless compaction moved past it.
  if (!m.entries.empty() && m.prev_log_index >= log_.base_index() &&
      m.prev_log_index <= log_.last_index() &&
      log_.term_at(m.prev_log_index) == m.prev_log_term) {
    LogIndex idx = m.prev_log_index;
    for (const LogEntry& e : m.entries) {
      ++idx;
      if (idx <= log_.last_index()) {
        if (log_.term_at(idx) == e.term) continue;  // already have it
        log_.truncate_after(idx - 1);
      }
      log_.append(e);
    }
  }
  const LogIndex last = m.last_log_index;
  if (last == 0 || last < log_.base_index() || last > log_.last_index() ||
      log_.term_at(last) != m.last_log_term)
    return false;
  if (last > commit_) {
    commit_ = last;
    apply_committed();
  }
  return true;
}

bool RaftNode::dissolution_notice(const WireMsg& request,
                                  WireMsg& notice) const {
  notice.group = group_;
  notice.type = MsgType::kGroupDissolved;
  notice.last_log_index = commit_;
  notice.last_log_term = log_.term_at(commit_);
  if (request.type != MsgType::kDissolvedTailRequest) return true;
  const LogIndex from = request.prev_log_index;
  if (from < log_.base_index() || from >= commit_) return false;
  notice.prev_log_index = from;
  notice.prev_log_term = log_.term_at(from);
  for (LogIndex i = from + 1; i <= commit_; ++i)
    notice.entries.push_back(log_.at(i));
  return true;
}

void RaftNode::advance_commit() {
  // Find the highest N replicated on a quorum with log term == current term.
  for (LogIndex n = log_.last_index(); n > commit_; --n) {
    if (log_.term_at(n) != term_) break;
    std::size_t count = 0;
    for (LogIndex mi : match_index_) {
      if (mi >= n) ++count;
    }
    if (count >= quorum()) {
      commit_ = n;
      apply_committed();
      // Propagate the new commit index immediately instead of waiting for
      // the next heartbeat — followers deliver with one extra half-RTT
      // rather than up to a full heartbeat interval. Entries already on
      // the wire are NOT retransmitted (see sent_up_to_).
      if (role_ == Role::kLeader) {
        for (NodeId peer : members_) {
          if (peer != self_) notify_commit(peer);
        }
      }
      break;
    }
  }
}

void RaftNode::apply_committed() {
  // on_commit may re-enter (propose -> advance_commit -> apply_committed);
  // compaction must wait for the outermost frame, or it would erase the
  // entry an outer frame's callback still references.
  ++apply_depth_;
  while (applied_ < commit_) {
    ++applied_;
    const LogEntry& e = log_.at(applied_);
    if (e.is_noop) {
      if (cb_.on_noop_commit) cb_.on_noop_commit(e.leader, e.term);
    } else if (cb_.on_commit) {
      cb_.on_commit(applied_, e);
    }
  }
  if (--apply_depth_ == 0) maybe_compact();
}

}  // namespace canopus::raft
