#include "epaxos/epaxos.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace canopus::epaxos {

namespace {
/// Slots in a lane's first ring. A leader's lane on a loaded replica holds
/// its in-flight instances and its share of the repair ring.
constexpr std::size_t kLaneSlots = 8;
}  // namespace

void EPaxosNode::Instance::reset() {
  batch.reset();
  deps.clear();
  ok_from.clear();
  live = committed = executed = own = false;
}

EPaxosNode::Instance* EPaxosNode::Lane::find(std::uint64_t seq) {
  if (seq < base || seq - base >= ring.size()) return nullptr;
  Instance& slot = ring[(head + (seq - base)) & (ring.size() - 1)];
  return slot.live ? &slot : nullptr;
}

EPaxosNode::Instance& EPaxosNode::Lane::make(std::uint64_t seq) {
  assert(seq >= base);
  const std::uint64_t offset = seq - base;
  if (offset >= ring.size()) {
    // Grow to a power of two that reaches `seq`, the window first, in seq
    // order. The moved slots take their vectors' capacity along.
    std::vector<Instance> grown(
        std::bit_ceil(std::max<std::uint64_t>(offset + 1, kLaneSlots)));
    for (std::size_t i = 0; i < ring.size(); ++i)
      grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    ring.swap(grown);
    head = 0;
  }
  Instance& slot = ring[(head + offset) & (ring.size() - 1)];
  slot.live = true;
  return slot;
}

void EPaxosNode::Lane::drop_through(std::uint64_t upto) {
  if (upto < base) return;
  if (upto - base >= ring.size()) {  // the whole window goes
    for (Instance& slot : ring) slot.reset();
    head = 0;
    base = upto + 1;
    return;
  }
  for (; base <= upto; ++base) {
    ring[head].reset();
    head = (head + 1) & (ring.size() - 1);
  }
}

EPaxosNode::EPaxosNode(std::vector<NodeId> replicas, Config cfg)
    : replicas_(std::move(replicas)), cfg_(cfg) {}

EPaxosNode::Lane& EPaxosNode::lane(NodeId replica) {
  if (replica >= lanes_.size()) {
    NodeId top = replica;
    for (NodeId r : replicas_) top = std::max(top, r);
    lanes_.resize(std::size_t{top} + 1);
  }
  return lanes_[replica];
}

std::size_t EPaxosNode::fast_quorum() const {
  // EPaxos fast-path quorum: F + floor((F+1)/2) for N = 2F+1.
  const std::size_t n = replicas_.size();
  const std::size_t f = (n - 1) / 2;
  return f + (f + 1) / 2;
}

void EPaxosNode::on_crash() { pending_.clear(); }

void EPaxosNode::on_recover() { resync(); }

void EPaxosNode::resync() {
  if (crashed()) return;
  for (NodeId peer : replicas_) {
    if (peer != node_id()) send(peer, SeqProbe{});
  }
  // Own instances that were in flight at crash time (PreAccepts delivered,
  // the acks lost while down) only commit if their retransmit loop runs —
  // the SeqProbe replies alone never re-arm it when no OTHER leader's
  // commits were missed.
  if (!own_uncommitted_.empty()) arm_repair_timer();
}

void EPaxosNode::submit(kv::Request r) {
  if (crashed()) return;
  r.origin = node_id();
  pending_.push_back(r);
  after_once(batch_timer_armed_, cfg_.batch_interval,
             [this] { flush_batch(); });
}

void EPaxosNode::on_message(const simnet::Message& m) {
  if (crashed()) return;
  if (const auto* batch = m.as<kv::ClientBatch>()) {
    for (const kv::Request& r : batch->reqs) submit(r);
  } else if (const auto* pa = m.as<PreAccept>()) {
    handle_pre_accept(m.src(), *pa);
  } else if (const auto* ok = m.as<PreAcceptOk>()) {
    handle_pre_accept_ok(m.src(), *ok);
  } else if (const auto* c = m.as<Commit>()) {
    handle_commit(*c);
  } else if (const auto* f = m.as<Fetch>()) {
    handle_fetch(m.src(), *f);
  } else if (const auto* cf = m.as<CommitFull>()) {
    handle_commit_full(*cf);
  } else if (m.as<SnapRequest>() != nullptr) {
    handle_snap_request(m.src());
  } else if (const auto* sn = m.as<SnapshotMsg>()) {
    handle_snapshot(*sn);
  } else if (m.as<SeqProbe>() != nullptr) {
    send(m.src(), SeqInfo{own_committed_});
  } else if (const auto* si = m.as<SeqInfo>()) {
    auto& seen = max_committed_seen_[m.src()];
    seen = std::max(seen, si->committed_seq);
    if (lane(m.src()).contig < seen) arm_repair_timer();
  }
}

void EPaxosNode::flush_batch() {
  if (pending_.empty()) return;

  const InstanceId id{node_id(), next_seq_++};
  net().busy(node_id(),
             static_cast<Time>(pending_.size()) * kCpuPerCommand);
  Instance& inst = record(id);
  // A copy, so pending_ keeps its capacity for the next batch.
  inst.batch = std::make_shared<const std::vector<kv::Request>>(pending_);
  pending_.clear();
  inst.own = true;  // the leader's own vote is implicit

  // Interference model: with probability cfg_.interference the instance
  // conflicts with all currently active interfering instances and must
  // carry them as dependencies (the paper evaluates at 0 -> always empty).
  if (cfg_.interference > 0 && rng().uniform() < cfg_.interference) {
    inst.deps = active_interfering_;
    active_interfering_.push_back(id);
  }

  // One payload for the whole fan-out.
  const simnet::Payload msg(PreAccept{id, inst.batch, inst.deps});
  for (NodeId peer : replicas_) {
    if (peer != node_id()) send(peer, msg);
  }
  if (replicas_.size() == 1) {
    inst.committed = true;
    register_commit(id);
    try_execute(id);
    return;
  }
  own_uncommitted_.emplace_back(id, sim().now());
  arm_repair_timer();  // retransmits the PreAccept if a partition eats it
}

void EPaxosNode::handle_pre_accept(NodeId src, const PreAccept& pa) {
  if (pruned(pa.id)) {
    // Stale retransmit for an instance this replica already executed and
    // pruned: ack without resurrecting a record.
    send_pre_accept_ok(src, pa);
    return;
  }
  Instance& inst = record(pa.id);
  if (!inst.committed) {  // a commit's attributes are authoritative
    inst.batch = pa.batch;
    inst.deps = pa.deps;
  }
  net().busy(node_id(),
             static_cast<Time>(pa.batch ? pa.batch->size() : 0) *
                 kCpuPerCommand);
  // Zero-interference fast path: the acceptor sees no conflicting
  // instances, so it echoes the dependencies unchanged and the leader's
  // fast quorum check succeeds.
  send_pre_accept_ok(src, pa);
}

void EPaxosNode::send_pre_accept_ok(NodeId leader, const PreAccept& pa) {
  // The leader has usually dropped the last ack by the next PreAccept, so
  // the memo's block carries this one (DESIGN.md §5.2).
  simnet::Payload& memo = lane(leader).ok_memo;
  if (!memo.rewrite<PreAcceptOk>([&](PreAcceptOk& ok) {
        ok.id = pa.id;
        ok.deps = pa.deps;
      }))
    memo = simnet::Payload(PreAcceptOk{pa.id, pa.deps});
  send(leader, memo);
}

void EPaxosNode::handle_pre_accept_ok(NodeId src, const PreAcceptOk& ok) {
  Instance* inst = find(ok.id);
  if (inst == nullptr || inst->committed) return;
  if (inst->acked_by(src)) return;  // retransmit duplicate
  inst->ok_from.push_back(src);
  if (inst->ok_from.size() + 1 >= fast_quorum()) {
    inst->committed = true;
    register_commit(ok.id);
    const simnet::Payload msg(Commit{ok.id, inst->deps});
    for (NodeId peer : replicas_) {
      if (peer != node_id()) send(peer, msg);
    }
    try_execute(ok.id);
  }
}

void EPaxosNode::handle_commit(const Commit& c) {
  if (pruned(c.id)) return;  // stale retransmit; already executed here
  Instance& inst = record(c.id);
  inst.deps = c.deps;
  inst.committed = true;
  register_commit(c.id);
  // Committed but batch-less: the PreAccept was lost (crash/partition
  // window) and only the commit got through. The contiguous frontier
  // will not advance past it, so the repair plane fetches the batch back.
  if (!inst.batch) arm_repair_timer();
  try_execute(c.id);
  retry_blocked();
}

void EPaxosNode::handle_commit_full(const CommitFull& cf) {
  if (pruned(cf.id)) return;  // stale repair reply; already executed here
  Instance& inst = record(cf.id);
  if (inst.committed && (inst.executed || inst.batch)) return;
  if (!inst.batch) inst.batch = cf.batch;
  inst.deps = cf.deps;
  inst.committed = true;
  register_commit(cf.id);
  try_execute(cf.id);
  retry_blocked();
}

void EPaxosNode::handle_fetch(NodeId src, const Fetch& f) {
  // Serve the gap from whatever committed instances (with batches still
  // resident) this replica holds; the requester rotates targets if we
  // cannot cover the range.
  for (std::uint64_t s = f.from; s <= f.to; ++s) {
    const InstanceId id{f.replica, s};
    const Instance* inst = find(id);
    if (inst == nullptr || !inst->committed || !inst->batch) continue;
    send(src, CommitFull{id, inst->batch, inst->deps});
  }
}

void EPaxosNode::handle_snap_request(NodeId src) {
  // Donor eligibility: this replica's executed set must be prefix-closed
  // for EVERY replica's instance space — otherwise the image would bake in
  // out-of-order executions the frontier vector cannot describe, and the
  // receiver could double-apply or lose commands. Ineligible donors stay
  // silent; the requester's rotation finds another (or this one becomes
  // eligible once its own gaps close).
  for (NodeId r : replicas_) {
    const Lane& l = lane(r);
    if (l.exec_contig != l.max_executed) return;
  }
  SnapshotMsg s;
  s.snap = capture_snapshot();
  s.snap.set_sum = set_digest_.value();
  s.snap.set_count = set_digest_.count();
  s.executed_count = executed_;
  s.covered.reserve(replicas_.size());
  for (NodeId r : replicas_) s.covered.emplace_back(r, lane(r).exec_contig);
  send(src, s);
}

void EPaxosNode::handle_snapshot(const SnapshotMsg& s) {
  std::unordered_map<NodeId, std::uint64_t> covered;
  for (const auto& [r, upto] : s.covered) covered[r] = upto;
  const auto covered_upto = [&](NodeId r) {
    const auto it = covered.find(r);
    return it == covered.end() ? std::uint64_t{0} : it->second;
  };
  // Stale (a slow donor answered after the gap closed): ignore.
  bool advances = false;
  for (const auto& [r, upto] : covered) {
    if (upto > lane(r).contig) {
      advances = true;
      break;
    }
  }
  if (!advances) return;
  // Replay set: instances this replica executed BEYOND the image's
  // per-replica frontier (EPaxos executes out of order, so local state can
  // be ahead of any prefix-closed image). Their effects are in our state
  // but not the donor's image — they must be re-applied on top after the
  // restore. If any of them already evicted its batch we cannot replay:
  // reject this image and let the rotation find a donor whose frontier
  // passes it.
  std::vector<InstanceId> replay;
  for (NodeId r = 0; r < lanes_.size(); ++r) {
    Lane& l = lanes_[r];
    for (std::uint64_t seq = std::max(l.base, covered_upto(r) + 1);
         seq - l.base < l.ring.size(); ++seq) {
      const Instance* inst = l.find(seq);
      if (inst == nullptr || !inst->executed) continue;
      if (!inst->batch) return;
      replay.push_back(InstanceId{r, seq});
    }
  }
  // Install: adopt the donor's set digest and per-replica frontiers here,
  // its store and commit digest in install_snapshot below.
  set_digest_.restore(s.snap.set_sum, s.snap.set_count);
  executed_ = s.executed_count;
  for (const auto& [r, upto] : covered) {
    auto raise = [upto](std::uint64_t& v) { v = std::max(v, upto); };
    Lane& l = lane(r);
    raise(l.contig);
    raise(l.exec_contig);
    raise(l.max_executed);
    raise(max_committed_seen_[r]);
    l.gap_attempts = 0;
    if (r == node_id()) {
      own_committed_ = std::max(own_committed_, upto);
      if (next_seq_ <= upto) next_seq_ = upto + 1;
      while (!own_uncommitted_.empty() &&
             own_uncommitted_.front().first.seq <= upto)
        own_uncommitted_.pop_front();
    }
    // Records the image covers will never execute here: drop them so no
    // stale retransmit resurrects one (the lane's base guards the
    // handlers).
    l.drop_through(upto);
  }
  std::erase_if(blocked_, [&](const InstanceId& id) {
    return id.seq <= covered_upto(id.replica);
  });
  install_snapshot(s.snap);
  // Replay the kept-ahead executions in InstanceId order (the digests are
  // order-insensitive across non-interfering instances, so a deterministic
  // order suffices). Their clients were answered at the first execution,
  // so the replay applies without acknowledging. on_commit fires again so
  // an external audit log that reset to the image stays consistent with
  // the final state.
  std::sort(replay.begin(), replay.end());
  for (const InstanceId& id : replay) {
    const Instance* inst = find(id);
    if (inst == nullptr || !inst->batch) continue;
    for (const kv::Request& r : *inst->batch) {
      if (r.is_write) {
        apply_write(r);
        set_digest_.append(r);
      }
      ++executed_;
    }
    if (on_commit) on_commit(executed_, *inst->batch);
  }
  for (NodeId r : replicas_) advance_exec_contig(r);
  retry_blocked();
}

void EPaxosNode::register_commit(const InstanceId& id) {
  if (id.replica == node_id()) {
    own_committed_ = std::max(own_committed_, id.seq);
    while (!own_uncommitted_.empty()) {
      const Instance* inst = find(own_uncommitted_.front().first);
      if (inst != nullptr && !inst->committed) break;
      own_uncommitted_.pop_front();
    }
  }
  auto& seen = max_committed_seen_[id.replica];
  seen = std::max(seen, id.seq);
  // Advance the contiguously-committed frontier for this command leader.
  // An instance counts only once it is executable (or executed): a commit
  // whose batch never arrived must keep the frontier behind it so the
  // repair fetch covers it.
  std::uint64_t& contig = lane(id.replica).contig;
  while (true) {
    const Instance* inst = find(InstanceId{id.replica, contig + 1});
    if (inst == nullptr || !inst->committed ||
        (!inst->executed && !inst->batch))
      break;
    ++contig;
  }
  // A hole below a known commit is a missed instance: repair it.
  if (contig < seen && id.replica != node_id()) arm_repair_timer();
}

void EPaxosNode::arm_repair_timer() {
  if (crashed()) return;
  after_once(repair_timer_armed_, cfg_.repair_retry, [this] {
    bool work_left = false;
    // Missed instances of other leaders: fetch the gap. Ask the command
    // leader first; rotate to the other replicas on subsequent attempts in
    // case it is dead or has already evicted the batch. The rotation is
    // BOUNDED per replica: one full pass over the targets without frontier
    // progress — or a gap wider than the repair window, which no peer's
    // ring can cover — escalates to a state snapshot instead of rotating
    // CommitFull fetches forever.
    for (const auto& [replica, seen] : max_committed_seen_) {
      if (replica == node_id()) continue;
      Lane& l = lane(replica);
      const std::uint64_t contig = l.contig;
      if (contig >= seen) {
        l.gap_attempts = 0;
        continue;
      }
      if (contig > l.gap_at) l.gap_attempts = 0;  // progress resets the budget
      l.gap_at = contig;
      std::vector<NodeId> targets{replica};
      for (NodeId peer : replicas_) {
        if (peer != node_id() && peer != replica) targets.push_back(peer);
      }
      const std::size_t attempt = static_cast<std::size_t>(l.gap_attempts++);
      const bool too_wide = seen - contig > cfg_.repair_window;
      const bool rotated_dry = attempt >= targets.size();
      work_left = true;
      const NodeId target = targets[attempt % targets.size()];
      if (too_wide || rotated_dry) {
        send(target, SnapRequest{});
        continue;
      }
      send(target, Fetch{replica, contig + 1, seen});
    }
    // Own instances stuck pre-quorum for a full interval had their
    // PreAccepts (or the acks) eaten by a fault: retransmit to the
    // acceptors that have not answered.
    const Time stale = sim().now() - cfg_.repair_retry;
    for (const auto& [id, proposed_at] : own_uncommitted_) {
      const Instance* inst = find(id);
      if (inst == nullptr || inst->committed) continue;
      work_left = true;
      if (proposed_at > stale) continue;
      const simnet::Payload msg(PreAccept{id, inst->batch, inst->deps});
      for (NodeId peer : replicas_) {
        if (peer != node_id() && !inst->acked_by(peer)) send(peer, msg);
      }
    }
    if (work_left) arm_repair_timer();
  });
}

void EPaxosNode::retry_blocked() {
  // A commit may unblock parked instances; retry until a fixed point.
  bool progress = true;
  while (progress && !blocked_.empty()) {
    progress = false;
    for (std::size_t i = 0; i < blocked_.size();) {
      if (try_execute(blocked_[i])) {
        blocked_[i] = blocked_.back();
        blocked_.pop_back();
        progress = true;
      } else {
        ++i;
      }
    }
  }
}

bool EPaxosNode::try_execute(const InstanceId& id) {
  const Instance* inst = find(id);
  if (inst == nullptr) return true;  // pruned == long executed
  if (!inst->committed) return false;
  if (inst->executed) return true;
  if (!inst->batch) {
    // Committed without its batch (lost PreAccept): park until the repair
    // plane fetches the batch back via CommitFull.
    if (std::find(blocked_.begin(), blocked_.end(), id) == blocked_.end())
      blocked_.push_back(id);
    return false;
  }
  for (const InstanceId& dep : inst->deps) {
    const Instance* d = find(dep);
    if (d != nullptr && !d->committed) {
      if (std::find(blocked_.begin(), blocked_.end(), id) == blocked_.end())
        blocked_.push_back(id);
      return false;
    }
  }
  // Dependencies all committed: execute them first in InstanceId order
  // (our stand-in for EPaxos' SCC/seq execution order), then self.
  for (const InstanceId& dep : inst->deps) {
    const Instance* d = find(dep);
    if (d != nullptr && !d->executed && dep < id) execute(dep);
  }
  execute(id);
  return true;
}

void EPaxosNode::execute(const InstanceId& id) {
  Instance* const inst = find(id);  // null once a snapshot covered it
  if (inst == nullptr || inst->executed || !inst->batch) return;
  inst->executed = true;
  Lane& l = lane(id.replica);
  l.max_executed = std::max(l.max_executed, id.seq);
  advance_exec_contig(id.replica);

  for (const kv::Request& r : *inst->batch) {
    ++executed_;
    if (r.is_write) {
      apply_write(r);
      set_digest_.append(r);
      if (inst->own) ack_write(r);
    } else if (inst->own && r.origin == node_id()) {
      // Reads travel through the protocol (§8.1.1) and are answered where
      // they entered, when their instance executes. The protocol already
      // charged kCpuPerCommand for them.
      serve_read(r, 0);
    }
  }
  active_interfering_.erase(
      std::remove(active_interfering_.begin(), active_interfering_.end(), id),
      active_interfering_.end());
  if (on_commit) on_commit(executed_, *inst->batch);
  // Executed batches stay resident in a bounded ring for peer repair, then
  // become dead weight and are dropped.
  repair_ring_.push_back(id);
  while (repair_ring_.size() > cfg_.repair_window) {
    const InstanceId victim = repair_ring_.front();
    repair_ring_.pop_front();
    if (Instance* evict = find(victim)) evict->batch.reset();
    // Executed + evicted records below the executed frontier no longer
    // serve repair: erase them so the lanes stay bounded too.
    prune_instances(victim.replica);
  }
  flush_replies();
}

void EPaxosNode::advance_exec_contig(NodeId replica) {
  std::uint64_t& ec = lane(replica).exec_contig;
  while (true) {
    const Instance* inst = find(InstanceId{replica, ec + 1});
    if (inst == nullptr || !inst->executed) break;
    ++ec;
  }
}

void EPaxosNode::prune_instances(NodeId replica) {
  Lane& l = lane(replica);
  while (l.base <= l.exec_contig) {
    // Batch still resident means it is still in the repair ring: keep it.
    const Instance* inst = l.find(l.base);
    if (inst != nullptr && (!inst->executed || inst->batch)) break;
    l.drop_through(l.base);
  }
}

}  // namespace canopus::epaxos
