#include "zab/zab.h"

#include <algorithm>
#include <cassert>

namespace canopus::zab {

ZabNode::ZabNode(std::vector<NodeId> members, Config cfg)
    : members_(std::move(members)), cfg_(cfg) {
  assert(!members_.empty());
  leader_ = members_[0];
  // Ensembles smaller than followers+1 simply have fewer voters.
  cfg_.followers =
      std::min(cfg_.followers, static_cast<int>(members_.size()) - 1);
}

ZabNode::Role ZabNode::role() const {
  if (node_id() == leader_) return Role::kLeader;
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), node_id()) -
      members_.begin());
  return pos <= static_cast<std::size_t>(cfg_.followers) ? Role::kFollower
                                                         : Role::kObserver;
}

void ZabNode::on_crash() {
  if (role() == Role::kLeader) pending_.clear();
}

void ZabNode::on_recover() {
  if (role() == Role::kLeader) {
    if (!in_flight_.empty()) arm_retransmit_timer();
  } else {
    resync();
  }
}

void ZabNode::resync() {
  if (crashed() || role() == Role::kLeader) return;
  send(leader_, SyncReq{next_apply_});
  arm_sync_timer();
}

void ZabNode::intake(std::span<const kv::Request> reqs) {
  // Reads are served locally from committed state (ZooKeeper semantics);
  // a member forwards its writes to the leader in one message.
  for (kv::Request r : reqs) {
    r.origin = node_id();
    if (!r.is_write) {
      serve_read(r, kCpuPerRead);
    } else if (role() == Role::kLeader) {
      pending_.push_back(r);
      arm_batch_timer();
    } else {
      forward_.push_back(r);
    }
  }
  if (!forward_.empty()) {
    if (!forward_memo_.rewrite_body<Forward>(forward_))
      forward_memo_ = simnet::Payload::with_body<Forward>(forward_);
    send(leader_, forward_memo_);
    forward_.clear();
  }
  flush_replies();
}

void ZabNode::on_message(const simnet::Message& m) {
  if (crashed()) return;
  if (const auto* batch = m.as<kv::ClientBatch>()) {
    intake(batch->reqs);
  } else if (const auto* f = m.as<Forward>()) {
    handle_forward(*f);
  } else if (const auto* p = m.as<Propose>()) {
    handle_propose(m.src(), *p);
  } else if (const auto* a = m.as<Ack>()) {
    handle_ack(m.src(), *a);
  } else if (const auto* c = m.as<CommitMsg>()) {
    handle_commit(*c);
  } else if (const auto* inf = m.as<Inform>()) {
    handle_inform(*inf);
  } else if (const auto* sr = m.as<SyncReq>()) {
    handle_sync_req(m.src(), *sr);
  } else if (const auto* snap = m.as<Snapshot>()) {
    handle_snapshot(*snap);
  }
}

void ZabNode::handle_forward(const Forward& f) {
  assert(role() == Role::kLeader);
  pending_.insert(pending_.end(), f.reqs.begin(), f.reqs.end());
  arm_batch_timer();
}

void ZabNode::arm_batch_timer() {
  after_once(batch_timer_armed_, cfg_.batch_interval,
             [this] { flush_batch(); });
}

void ZabNode::flush_batch() {
  if (pending_.empty()) return;
  // The coordinator's per-write pipeline cost — the centralized bottleneck.
  net().busy(node_id(),
             static_cast<Time>(pending_.size()) * kLeaderCpuPerWrite);
  const Zxid z = next_zxid_++;
  InFlight& fl = in_flight_[z];
  fl.batch = std::make_shared<const std::vector<kv::Request>>(
      std::move(pending_));
  pending_.clear();

  // One payload for the whole fan-out.
  const simnet::Payload msg(Propose{z, fl.batch});
  for (int i = 1; i <= cfg_.followers &&
                  i < static_cast<int>(members_.size());
       ++i) {
    send(members_[static_cast<std::size_t>(i)], msg);
  }
  arm_retransmit_timer();
  if (quorum() <= 1) {  // degenerate single-node ensemble
    ready_[z] = fl.batch;
    in_flight_.erase(z);
    advance_apply();
  }
}

void ZabNode::arm_retransmit_timer() {
  if (in_flight_.empty()) return;
  after_once(retransmit_timer_armed_, cfg_.sync_retry, [this] {
    if (in_flight_.empty()) return;
    // A proposal still unacked after a full retry interval was lost to a
    // crash or partition: resend it to every follower that has not acked.
    for (const auto& [zxid, fl] : in_flight_) {
      const simnet::Payload msg(Propose{zxid, fl.batch});
      for (int i = 1; i <= cfg_.followers &&
                      i < static_cast<int>(members_.size());
           ++i) {
        const NodeId peer = members_[static_cast<std::size_t>(i)];
        if (!fl.acked.contains(peer)) send(peer, msg);
      }
    }
    arm_retransmit_timer();
  });
}

void ZabNode::handle_propose(NodeId src, const Propose& p) {
  // A retransmitted Propose can race a catch-up Inform and arrive after
  // its zxid was applied; holding it again would leak the entry forever
  // (no further Commit will come). The ack is still sent — idempotent at
  // the leader.
  if (p.zxid >= next_apply_) uncommitted_[p.zxid] = p.batch;
  send(src, Ack{p.zxid});
}

void ZabNode::handle_ack(NodeId src, const Ack& a) {
  auto it = in_flight_.find(a.zxid);
  if (it == in_flight_.end()) return;
  InFlight& fl = it->second;
  if (!fl.acked.insert(src).second) return;  // duplicate ack (retransmit)
  if (fl.acked.size() + 1 < quorum()) return;

  // Commit to followers (they hold the batch); Inform observers with data.
  // One payload per fan-out. members_[1..followers] are the followers.
  const std::size_t observers_from =
      static_cast<std::size_t>(cfg_.followers) + 1;
  const simnet::Payload commit_msg(CommitMsg{a.zxid});
  for (std::size_t i = 1; i < observers_from; ++i)
    send(members_[i], commit_msg);
  if (observers_from < members_.size()) {
    const simnet::Payload inform_msg(Inform{a.zxid, fl.batch});
    for (std::size_t i = observers_from; i < members_.size(); ++i)
      send(members_[i], inform_msg);
  }
  // Quorums can complete out of zxid order under retransmission; the
  // leader applies through the same strictly-ordered path as everyone
  // else so all digests see one order.
  ready_[a.zxid] = fl.batch;
  in_flight_.erase(it);
  advance_apply();
}

void ZabNode::record_history(
    [[maybe_unused]] Zxid zxid,
    std::shared_ptr<const std::vector<kv::Request>> batch) {
  // Commits happen in zxid order at the leader, so the ring stays dense.
  assert(zxid == history_base_ + history_.size());
  history_.push_back(std::move(batch));
  while (history_.size() > cfg_.history_depth) {
    history_.pop_front();
    ++history_base_;
  }
}

void ZabNode::handle_sync_req(NodeId src, const SyncReq& sr) {
  if (role() != Role::kLeader) return;
  if (sr.from < history_base_) {
    // The requested zxid predates retained history. Never black-hole the
    // requester (the pre-snapshot bug: it would re-request forever): ship
    // a full state snapshot at the leader's applied frontier, which covers
    // the whole retained window too, so no Informs are needed.
    const Zxid upto = applied_upto();
    if (snap_cache_upto_ != upto || snap_cache_.image == nullptr) {
      snap_cache_upto_ = upto;
      snap_cache_ = capture_snapshot();
    }
    Snapshot s{upto, snap_cache_};
    ++snapshots_served_;
    send(src, s);
    return;
  }
  // Resend every committed batch the requester is missing, oldest first.
  const Zxid first = std::max(sr.from, history_base_);
  const Zxid last = history_base_ + history_.size();  // one past the end
  for (Zxid z = first; z < last; ++z) {
    Inform inf{z, history_[static_cast<std::size_t>(z - history_base_)]};
    send(src, inf);
  }
}

void ZabNode::handle_snapshot(const Snapshot& s) {
  if (s.upto < next_apply_) return;  // stale: we advanced past it meanwhile
  // History fast-forwards to `upto` without applying the commits it covers.
  next_apply_ = s.upto + 1;
  max_committed_seen_ = std::max(max_committed_seen_, s.upto);
  std::erase_if(uncommitted_,
                [&](const auto& kv) { return kv.first <= s.upto; });
  std::erase_if(ready_, [&](const auto& kv) { return kv.first <= s.upto; });
  install_snapshot(s.snap);
  // Later commits may already be parked in ready_.
  advance_apply();
}

void ZabNode::handle_commit(const CommitMsg& c) {
  max_committed_seen_ = std::max(max_committed_seen_, c.zxid);
  auto it = uncommitted_.find(c.zxid);
  if (it != uncommitted_.end()) {
    ready_[c.zxid] = std::move(it->second);
    uncommitted_.erase(it);
  }
  advance_apply();
}

void ZabNode::handle_inform(const Inform& inf) {
  max_committed_seen_ = std::max(max_committed_seen_, inf.zxid);
  if (inf.zxid >= next_apply_) {
    ready_[inf.zxid] = inf.batch;
    uncommitted_.erase(inf.zxid);  // catch-up may overtake a held proposal
  }
  advance_apply();
}

void ZabNode::advance_apply() {
  const bool leader = role() == Role::kLeader;
  while (ready_.contains(next_apply_)) {
    if (leader) record_history(next_apply_, ready_[next_apply_]);
    max_committed_seen_ = std::max(max_committed_seen_, next_apply_);
    commit_batch(next_apply_, *ready_[next_apply_], kCpuPerWrite);
    ready_.erase(next_apply_);
    ++next_apply_;
  }
  // A committed zxid we cannot apply yet means a lost proposal or a missed
  // commit: ask the leader for the gap (throttled by the sync timer).
  if (next_apply_ <= max_committed_seen_) arm_sync_timer();
}

void ZabNode::arm_sync_timer() {
  if (role() == Role::kLeader) return;
  after_once(sync_timer_armed_, cfg_.sync_retry, [this] {
    if (next_apply_ <= max_committed_seen_) {
      send(leader_, SyncReq{next_apply_});
      arm_sync_timer();
    }
  });
}

}  // namespace canopus::zab
