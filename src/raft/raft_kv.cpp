#include "raft/raft_kv.h"

#include <cassert>

namespace canopus::raft {

RaftKvNode::RaftKvNode(std::vector<NodeId> members, KvConfig cfg)
    : members_(std::move(members)), cfg_(cfg) {
  assert(!members_.empty());
}

void RaftKvNode::on_start() {
  RaftNode::Callbacks cb;
  cb.send = [this](NodeId dst, simnet::Payload p, std::size_t bytes) {
    send(dst, bytes, std::move(p));
  };
  cb.on_commit = [this](LogIndex idx, const LogEntry& e) {
    if (const auto* b = e.payload.as<KvBatch>(); b != nullptr && b->reqs)
      commit_batch(idx, *b->reqs, cfg_.cpu_per_write);
  };
  cb.make_snapshot = [this](std::size_t& bytes) {
    KvSnapshot s{capture_snapshot()};
    bytes = s.wire_bytes();
    return simnet::Payload(std::move(s));
  };
  cb.install_snapshot = [this](LogIndex, const simnet::Payload& p) {
    if (const auto* s = p.as<KvSnapshot>()) install_snapshot(s->snap);
  };
  raft_ = std::make_unique<RaftNode>(/*group=*/0, node_id(), members_, sim(),
                                     std::move(cb), cfg_.raft);
  raft_->start(/*bootstrap_as_leader=*/node_id() == members_[0]);
}

void RaftKvNode::crash() {
  crashed_ = true;
  if (raft_) raft_->stop();
  pending_.clear();        // volatile: unproposed batches die with the node
  drop_replies();
}

void RaftKvNode::recover() {
  if (!crashed_) return;
  crashed_ = false;
  // Durable state (log, term, vote) survives; the node rejoins as a
  // follower and the leader's AppendEntries backoff repairs its log.
  if (raft_) raft_->start(/*bootstrap_as_leader=*/false);
}

void RaftKvNode::submit(kv::Request r) {
  if (crashed_) return;
  r.origin = node_id();
  enqueue(std::move(r));
}

void RaftKvNode::on_message(const simnet::Message& m) {
  if (crashed_) return;
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
      // Stale forward (leadership moved): pass it along.
      send(raft_->leader_hint(), fwd->wire_bytes(), *fwd);
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
    serve_read(r, cfg_.cpu_per_read);
    return;
  }
  pending_.push_back(std::move(r));
  arm_flush_timer();
}

void RaftKvNode::arm_flush_timer() {
  if (flush_timer_armed_) return;
  flush_timer_armed_ = true;
  after(cfg_.batch_interval, [this] {
    flush_timer_armed_ = false;
    if (!crashed_) flush_batch();
  });
}

void RaftKvNode::flush_batch() {
  if (pending_.empty() || raft_ == nullptr) return;
  if (raft_->is_leader()) {
    net().busy(node_id(), static_cast<Time>(pending_.size()) *
                              cfg_.leader_cpu_per_write);
    KvBatch b;
    b.reqs = std::make_shared<const std::vector<kv::Request>>(
        std::move(pending_));
    pending_.clear();
    const std::size_t bytes = b.wire_bytes();
    raft_->propose(simnet::Payload(std::move(b)), bytes);
    return;
  }
  const NodeId leader = raft_->leader_hint();
  if (leader == kInvalidNode || leader == node_id()) {
    // Mid-election: hold the batch and retry after another interval.
    arm_flush_timer();
    return;
  }
  KvForward f{std::move(pending_)};
  pending_.clear();
  send(leader, f.wire_bytes(), f);
}

}  // namespace canopus::raft
