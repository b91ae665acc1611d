#include "raft/raft_kv.h"

#include <cassert>

namespace canopus::raft {

RaftKvNode::RaftKvNode(std::vector<NodeId> members, Options opt)
    : members_(std::move(members)), opt_(opt) {
  assert(!members_.empty());
}

void RaftKvNode::on_start() {
  RaftNode::Callbacks cb;
  cb.on_commit = [this](LogIndex idx, const LogEntry& e) {
    if (const auto* b = e.payload.as<KvBatch>(); b != nullptr && b->reqs)
      commit_batch(idx, *b->reqs, kKvCpuPerWrite);
  };
  cb.make_snapshot = [this] {
    return simnet::Payload(KvSnapshot{capture_snapshot()});
  };
  cb.install_snapshot = [this](LogIndex, const simnet::Payload& p) {
    if (const auto* s = p.as<KvSnapshot>()) install_snapshot(s->snap);
  };
  raft_ = std::make_unique<RaftNode>(/*group=*/0, node_id(), members_, sim(),
                                     net(), std::move(cb), opt_);
  raft_->start(/*bootstrap_as_leader=*/node_id() == members_[0]);
}

void RaftKvNode::on_crash() {
  if (raft_) raft_->stop();
  pending_.clear();
}

void RaftKvNode::on_recover() {
  if (raft_) raft_->start(/*bootstrap_as_leader=*/false);
}

void RaftKvNode::submit(kv::Request r) {
  if (crashed()) return;
  r.origin = node_id();
  enqueue(std::move(r));
}

void RaftKvNode::on_message(const simnet::Message& m) {
  if (crashed()) return;
  if (const auto* w = m.as<WireMsg>()) {
    if (raft_) raft_->on_message(m.src(), *w);
  } else if (const auto* batch = m.as<kv::ClientBatch>()) {
    for (const kv::Request& req : batch->reqs) {
      kv::Request r = req;
      r.origin = node_id();
      enqueue(std::move(r));
    }
    flush_replies();  // reads answered inline
  } else if (const auto* fwd = m.as<KvForward>()) {
    // Forwarded writes keep their original origin: the *origin* node
    // replies to the client at apply time.
    if (raft_ && raft_->is_leader()) {
      pending_.insert(pending_.end(), fwd->reqs.begin(), fwd->reqs.end());
      arm_flush_timer();
    } else if (raft_ && raft_->leader_hint() != kInvalidNode &&
               raft_->leader_hint() != node_id()) {
      // Stale forward (leadership moved): pass the same payload along.
      send(raft_->leader_hint(), m.payload());
    } else {
      // No known leader: adopt the requests locally and retry via the
      // ordinary flush path once a leader emerges.
      pending_.insert(pending_.end(), fwd->reqs.begin(), fwd->reqs.end());
      arm_flush_timer();
    }
  }
}

void RaftKvNode::enqueue(kv::Request r) {
  if (!r.is_write) {
    serve_read(r, kKvCpuPerRead);
    return;
  }
  pending_.push_back(std::move(r));
  arm_flush_timer();
}

void RaftKvNode::arm_flush_timer() {
  after_once(flush_timer_armed_, kKvBatchInterval, [this] { flush_batch(); });
}

void RaftKvNode::flush_batch() {
  if (pending_.empty() || raft_ == nullptr) return;
  if (raft_->is_leader()) {
    net().busy(node_id(),
               static_cast<Time>(pending_.size()) * kKvLeaderCpuPerWrite);
    KvBatch b;
    b.reqs = std::make_shared<const std::vector<kv::Request>>(
        std::move(pending_));
    pending_.clear();
    raft_->propose(std::move(b));
    return;
  }
  const NodeId leader = raft_->leader_hint();
  if (leader == kInvalidNode || leader == node_id()) {
    // Mid-election: hold the batch and retry after another interval.
    arm_flush_timer();
    return;
  }
  if (!forward_memo_.rewrite_body<KvForward>(pending_))
    forward_memo_ = simnet::Payload::with_body<KvForward>(pending_);
  send(leader, forward_memo_);
  pending_.clear();
}

}  // namespace canopus::raft
