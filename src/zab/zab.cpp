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

void ZabNode::on_start() {}

ZabNode::Role ZabNode::role() const {
  if (node_id() == leader_) return Role::kLeader;
  const auto pos = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), node_id()) -
      members_.begin());
  return pos <= static_cast<std::size_t>(cfg_.followers) ? Role::kFollower
                                                         : Role::kObserver;
}

void ZabNode::crash() {
  crashed_ = true;
  // Volatile request buffers die with the process; the committed store,
  // the uncommitted/ready tables and the leader's in-flight table model
  // state recovered from the durable log.
  if (role() == Role::kLeader) pending_.clear();
  drop_replies();
}

void ZabNode::recover() {
  if (!crashed_) return;
  crashed_ = false;
  if (role() == Role::kLeader) {
    // Resume the commit pipeline: unacked proposals go out again.
    if (!in_flight_.empty()) arm_retransmit_timer();
  } else {
    resync();
  }
}

void ZabNode::resync() {
  if (crashed_ || role() == Role::kLeader) return;
  SyncReq sr{next_apply_};
  send(leader_, SyncReq::kWire, sr);
  arm_sync_timer();
}

void ZabNode::intake(std::span<const kv::Request> reqs) {
  // Reads are served locally from committed state (ZooKeeper semantics);
  // a member forwards its writes to the leader in one message.
  Forward fwd;
  for (kv::Request r : reqs) {
    r.origin = node_id();
    if (!r.is_write) {
      serve_read(r, cfg_.cpu_per_read);
    } else if (role() == Role::kLeader) {
      pending_.push_back(r);
      arm_batch_timer();
    } else {
      fwd.reqs.push_back(r);
    }
  }
  if (!fwd.reqs.empty()) send(leader_, fwd.wire_bytes(), fwd);
  flush_replies();
}

void ZabNode::on_message(const simnet::Message& m) {
  if (crashed_) return;
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
  if (batch_timer_armed_) return;
  batch_timer_armed_ = true;
  after(cfg_.batch_interval, [this] {
    batch_timer_armed_ = false;
    if (!crashed_) flush_batch();
  });
}

void ZabNode::flush_batch() {
  if (pending_.empty()) return;
  // The coordinator's per-write pipeline cost — the centralized bottleneck.
  net().busy(node_id(), static_cast<Time>(pending_.size()) *
                            cfg_.leader_cpu_per_write);
  const Zxid z = next_zxid_++;
  InFlight& fl = in_flight_[z];
  fl.batch = std::make_shared<const std::vector<kv::Request>>(
      std::move(pending_));
  pending_.clear();

  // One payload for the whole fan-out.
  const Propose p{z, fl.batch};
  const simnet::Payload msg(p);
  for (int i = 1; i <= cfg_.followers &&
                  i < static_cast<int>(members_.size());
       ++i) {
    send(members_[static_cast<std::size_t>(i)], p.wire_bytes(), msg);
  }
  arm_retransmit_timer();
  if (quorum() <= 1) {  // degenerate single-node ensemble
    fl.committed = true;
    ready_[z] = fl.batch;
    in_flight_.erase(z);
    advance_apply();
  }
}

void ZabNode::arm_retransmit_timer() {
  if (retransmit_timer_armed_ || in_flight_.empty()) return;
  retransmit_timer_armed_ = true;
  after(cfg_.sync_retry, [this] {
    retransmit_timer_armed_ = false;
    if (crashed_ || in_flight_.empty()) return;
    // A proposal still unacked after a full retry interval was lost to a
    // crash or partition: resend it to every follower that has not acked.
    for (const auto& [zxid, fl] : in_flight_) {
      const Propose p{zxid, fl.batch};
      const simnet::Payload msg(p);
      for (int i = 1; i <= cfg_.followers &&
                      i < static_cast<int>(members_.size());
           ++i) {
        const NodeId peer = members_[static_cast<std::size_t>(i)];
        if (!fl.acked.contains(peer)) send(peer, p.wire_bytes(), msg);
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
  Ack a{p.zxid};
  send(src, Ack::kWire, a);
}

void ZabNode::handle_ack(NodeId src, const Ack& a) {
  auto it = in_flight_.find(a.zxid);
  if (it == in_flight_.end() || it->second.committed) return;
  InFlight& fl = it->second;
  if (!fl.acked.insert(src).second) return;  // duplicate ack (retransmit)
  if (fl.acked.size() + 1 < quorum()) return;
  fl.committed = true;

  // Commit to followers (they hold the batch); Inform observers with data.
  // One payload per fan-out. members_[1..followers] are the followers.
  const std::size_t observers_from =
      static_cast<std::size_t>(cfg_.followers) + 1;
  const simnet::Payload commit_msg(CommitMsg{a.zxid});
  for (std::size_t i = 1; i < observers_from; ++i)
    send(members_[i], CommitMsg::kWire, commit_msg);
  if (observers_from < members_.size()) {
    const Inform inf{a.zxid, fl.batch};
    const simnet::Payload inform_msg(inf);
    for (std::size_t i = observers_from; i < members_.size(); ++i)
      send(members_[i], inf.wire_bytes(), inform_msg);
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
    send(src, s.wire_bytes(), s);
    return;
  }
  // Resend every committed batch the requester is missing, oldest first.
  const Zxid first = std::max(sr.from, history_base_);
  const Zxid last = history_base_ + history_.size();  // one past the end
  for (Zxid z = first; z < last; ++z) {
    Inform inf{z, history_[static_cast<std::size_t>(z - history_base_)]};
    send(src, inf.wire_bytes(), inf);
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
    commit_batch(next_apply_, *ready_[next_apply_], cfg_.cpu_per_write);
    ready_.erase(next_apply_);
    ++next_apply_;
  }
  // A committed zxid we cannot apply yet means a lost proposal or a missed
  // commit: ask the leader for the gap (throttled by the sync timer).
  if (next_apply_ <= max_committed_seen_) arm_sync_timer();
}

void ZabNode::arm_sync_timer() {
  if (sync_timer_armed_ || role() == Role::kLeader) return;
  sync_timer_armed_ = true;
  after(cfg_.sync_retry, [this] {
    sync_timer_armed_ = false;
    if (crashed_) return;
    if (next_apply_ <= max_committed_seen_) {
      SyncReq sr{next_apply_};
      send(leader_, SyncReq::kWire, sr);
      arm_sync_timer();
    }
  });
}

}  // namespace canopus::zab
