#include "canopus/node.h"

#include <algorithm>
#include <cassert>

#include "raft/messages.h"

namespace canopus::core {

namespace {
/// Deterministic spreading of fetch targets across emulators without
/// consuming simulator randomness (keeps traces stable under refactors).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ b * 0xbf58476d1ce4e5b9ULL ^
                    c * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

bool has_vnode(const std::vector<proto::Proposal>& acc, VnodeId v) {
  return std::ranges::any_of(
      acc, [v](const proto::Proposal& p) { return p.vnode == v; });
}
}  // namespace

CanopusNode::CanopusNode(std::shared_ptr<const lot::Lot> lot, Config cfg)
    : lot_(std::move(lot)), cfg_(cfg), emu_(*lot_) {}

void CanopusNode::on_start() {
  const int sl = lot_->super_leaf_of(node_id());
  sl_live_ = lot_->super_leaf_members(sl);
  make_broadcast();
  rb_->start();
}

void CanopusNode::make_broadcast() {
  const int sl = lot_->super_leaf_of(node_id());
  if (cfg_.broadcast == BroadcastKind::kRaft) {
    rbcast::ReliableBroadcast::Callbacks cb;
    cb.send = [this](NodeId dst, simnet::Payload p, std::size_t bytes) {
      send(dst, bytes, std::move(p));
    };
    cb.deliver = [this](NodeId origin, const simnet::Payload& payload) {
      handle_rb_deliver(origin, payload);
    };
    cb.on_peer_failed = [this](NodeId failed) { handle_peer_failed(failed); };
    rb_ = std::make_unique<rbcast::ReliableBroadcast>(
        node_id(), sl_live_, sim(), std::move(cb), cfg_.raft);
  } else {
    rbcast::Broadcast::Callbacks cb;
    cb.deliver = [this](NodeId origin, const simnet::Payload& payload) {
      handle_rb_deliver(origin, payload);
    };
    cb.on_peer_failed = [this](NodeId failed) { handle_peer_failed(failed); };
    rb_ = std::make_unique<rbcast::SwitchBroadcast>(
        node_id(), sl_live_, cfg_.sequencers->get(sl), sim(), net(),
        std::move(cb), cfg_.switch_broadcast);
  }
}

void CanopusNode::crash() {
  crashed_ = true;
  joining_ = false;
  if (rb_) rb_->stop();
  if (pipeline_timer_ != simnet::kInvalidEvent) {
    sim().cancel(pipeline_timer_);
    pipeline_timer_ = simnet::kInvalidEvent;
  }
  if (join_timer_ != simnet::kInvalidEvent) {
    sim().cancel(join_timer_);
    join_timer_ = simnet::kInvalidEvent;
  }
}

void CanopusNode::recover() {
  if (!crashed_) return;
  crashed_ = false;
  enter_joining();
}

void CanopusNode::enter_joining() {
  joining_ = true;
  join_attempt_ = 0;
  // Everything dies with the node: volatile batches trivially, and the
  // committed state too — it is replaced wholesale by the sponsor's
  // snapshot, so the digest chain continues the sponsor's, not ours.
  pending_writes_.clear();
  pending_reads_.clear();
  pending_membership_.clear();
  pending_joiners_.clear();
  drop_replies();
  leases_.clear();
  for (auto& [c, cs] : cycles_) drop_fetch_timers(cs);
  cycles_.clear();
  prompted_ = false;
  empty_streak_ = 0;
  if (pipeline_timer_ != simnet::kInvalidEvent) {
    sim().cancel(pipeline_timer_);
    pipeline_timer_ = simnet::kInvalidEvent;
  }
  send_join_request();
}

void CanopusNode::on_message(const simnet::Message& m) {
  if (crashed_) return;
  if (joining_) {
    // A joining node is not a member: it ignores all protocol traffic
    // (including its stale broadcast groups) until the sponsor's ack.
    if (const auto* ja = m.as<proto::JoinAck>()) handle_join_ack(*ja);
    return;
  }
  if (rb_->handle(m)) {
    // consumed by the broadcast substrate
  } else if (const auto* pr = m.as<proto::ProposalRequest>()) {
    handle_proposal_request(m.src(), *pr);
  } else if (const auto* p = m.as<proto::Proposal>()) {
    handle_fetched_proposal(*p);
  } else if (const auto* jr = m.as<proto::JoinRequest>()) {
    handle_join_request(*jr);
  } else if (const auto* batch = m.as<kv::ClientBatch>()) {
    intake(batch->reqs);
  }
}

// --------------------------------------------------------------------------
// Rejoin by state transfer (§4.6 membership + PR 10)
// --------------------------------------------------------------------------

void CanopusNode::send_join_request() {
  if (crashed_ || !joining_) return;
  // Rotate through the original super-leaf roster (§3 assumption 6: a
  // joiner knows its rack peers) until a live sibling sponsors us. If the
  // whole super-leaf is gone this retries forever: the node stalls, as
  // specified (§6) — but loudly in `joining()`, never as a zombie member.
  const auto& roster =
      lot_->super_leaf_members(lot_->super_leaf_of(node_id()));
  std::vector<NodeId> targets;
  for (NodeId m : roster) {
    if (m != node_id()) targets.push_back(m);
  }
  if (!targets.empty()) {
    const NodeId target =
        targets[static_cast<std::size_t>(join_attempt_) % targets.size()];
    ++join_attempt_;
    send(target, proto::JoinRequest::kWire, proto::JoinRequest{node_id()});
  }
  join_timer_ = after(cfg_.fetch_timeout, [this] {
    join_timer_ = simnet::kInvalidEvent;
    send_join_request();
  });
}

void CanopusNode::handle_join_request(const proto::JoinRequest& jr) {
  const NodeId j = jr.joiner;
  if (j == node_id() || j == kInvalidNode) return;
  if (lot_->super_leaf_of(j) != lot_->super_leaf_of(node_id())) return;
  if (std::find(sl_live_.begin(), sl_live_.end(), j) != sl_live_.end())
    return;  // still (or again) a member: exclusion not agreed, or rejoined
  if (emu_.is_live(j)) return;  // exclusion not yet committed: too early
  // Grace: re-admission must not race the tail of the exclusion (the
  // joiner's old group elections and log drains may still be in flight).
  const auto it = excluded_at_.find(j);
  if (it == excluded_at_.end() ||
      sim().now() - it->second < 3 * raft::kElectionTimeoutMax)
    return;
  if (std::find(pending_joiners_.begin(), pending_joiners_.end(), j) !=
      pending_joiners_.end())
    return;  // join already proposed; the ack ships at its commit
  pending_joiners_.push_back(j);
  pending_membership_.push_back({proto::MembershipUpdate::Kind::kJoin, j});
  maybe_start_next_cycle();
}

void CanopusNode::send_join_ack(NodeId joiner, CycleId snapshot_cycle,
                                CycleId act) {
  proto::JoinAck ack;
  ack.snapshot_cycle = snapshot_cycle;
  ack.first_cycle = act;
  ack.snap = capture_snapshot();
  ack.members.reserve(sl_live_.size());
  for (NodeId m : sl_live_) ack.members.emplace_back(m, active_from(m));
  for (NodeId p : lot_->descendants(lot_->root())) {
    if (!emu_.is_live(p)) ack.dead.push_back(p);
  }
  send(joiner, ack.wire_bytes(), ack);
}

void CanopusNode::handle_join_ack(const proto::JoinAck& ack) {
  if (!joining_) return;
  if (join_timer_ != simnet::kInvalidEvent) {
    sim().cancel(join_timer_);
    join_timer_ = simnet::kInvalidEvent;
  }
  joining_ = false;
  // Install the sponsor's committed state (through snapshot_cycle); our
  // digest chain continues the sponsor's exactly.
  install_snapshot(ack.snap);
  last_committed_ = ack.snapshot_cycle;
  last_started_ = ack.first_cycle - 1;  // own cycles resume at first_cycle
  own_active_from_ = ack.first_cycle;
  for (auto& [c, cs] : cycles_) drop_fetch_timers(cs);
  cycles_.clear();
  // Liveness view as of the snapshot point; changes agreed since then
  // replay through the catch-up commits below.
  emu_ = lot::EmulationTable(*lot_);
  for (NodeId d : ack.dead) emu_.remove(d);
  active_from_.clear();
  sl_live_.clear();
  for (const auto& [m, from] : ack.members) {
    sl_live_.push_back(m);
    if (from > 0) active_from_[m] = from;
  }
  // Fresh broadcast groups over the current membership. Our peers created
  // our group (and admitted us to theirs) at the kJoin commit; their group
  // leaders repair our empty follower logs by AppendEntries backoff or —
  // past their compaction base — an InstallSnapshot fast-forward. Replayed
  // tail entries for cycles the snapshot covers are dropped by the
  // stale-cycle guard in handle_rb_deliver.
  make_broadcast();
  rb_->start();
  // Commit catch-up: cycles between the snapshot and our activation are
  // fetched as fully merged root states and committed in order — we never
  // run their round machinery (our groups may lack broadcasts from members
  // whose groups dissolved before we rejoined).
  for (CycleId cc = last_committed_ + 1; cc < ack.first_cycle; ++cc)
    issue_fetch(cc, lot_->root());
}

// --------------------------------------------------------------------------
// Client requests and reads (§5, §7.2)
// --------------------------------------------------------------------------

void CanopusNode::intake(std::span<const kv::Request> reqs) {
  if (crashed_ || joining_) return;
  for (kv::Request r : reqs) {
    r.origin = node_id();
    if (r.is_write) {
      pending_writes_.push_back(r);
    } else {
      enqueue_read(r);
    }
  }
  maybe_start_next_cycle();
  flush_replies();  // lease-served reads answer immediately
}

void CanopusNode::enqueue_read(kv::Request r) {
  if (cfg_.write_leases && !lease_active(r.key)) {
    // §7.2: no write lease active for this key in any ongoing cycle —
    // read the committed state immediately.
    answer_read(r);
    return;
  }
  pending_reads_.push_back(PendingRead{r, pending_writes_.size()});
}

bool CanopusNode::lease_active(std::uint64_t key) const {
  const auto it = leases_.find(key);
  return it != leases_.end() && it->second >= last_committed_ + 1;
}

void CanopusNode::answer_read(const kv::Request& r) {
  const std::uint64_t value = serve_read(r, cfg_.cpu_per_read);
  if (on_read) on_read(r, value);
}

// --------------------------------------------------------------------------
// Cycle lifecycle (§4.2, §4.4, §7.1)
// --------------------------------------------------------------------------

void CanopusNode::CycleState::reset() {
  // Every field starts from its default, except that the vectors keep
  // their capacity.
  CycleState fresh;
  fresh.acc = std::move(acc);
  fresh.state = std::move(state);
  fresh.reads = std::move(reads);
  for (auto& round_acc : fresh.acc) round_acc.clear();
  for (auto& s : fresh.state) s.reset();
  fresh.reads.clear();
  *this = std::move(fresh);
}

CanopusNode::CycleState& CanopusNode::cycle(CycleId c) {
  if (auto it = cycles_.find(c); it != cycles_.end()) return it->second;
  if (!spare_cycle_.empty()) {
    spare_cycle_.key() = c;
    return cycles_.insert(std::move(spare_cycle_)).position->second;
  }
  CycleState& cs = cycles_[c];
  const auto h = static_cast<std::size_t>(lot_->height());
  cs.acc.resize(h + 1);
  cs.state.resize(h + 1);
  return cs;
}

void CanopusNode::maybe_start_next_cycle(bool timer_fired) {
  if (crashed_ || joining_) return;
  // Pending membership updates count as local work: an idle system must
  // still start the cycle that carries an exclusion or a join.
  const bool local_work = !pending_writes_.empty() ||
                          !pending_reads_.empty() ||
                          !pending_membership_.empty();
  const bool idle = last_started_ == last_committed_;

  bool go;
  if (!cfg_.pipelining) {
    // One cycle at a time: start only when nothing is in flight, on outside
    // prompting or local work (§4.4).
    go = idle && (local_work || prompted_);
  } else {
    // §7.1/§4.4: cycle starts are paced by the inter-cycle timer and the
    // batch-size trigger, but outside prompting (a message for a cycle we
    // have not started) starts the next cycle immediately — that is the
    // self-synchronization that keeps every super-leaf's cycle numbers
    // aligned in wall-clock time. A node that briefly skipped ticks catches
    // up in a burst of (empty) cycles; max_outstanding_cycles bounds the
    // burst.
    if (last_started_ - last_committed_ >= cfg_.max_outstanding_cycles)
      return;
    const bool batch_full =
        pending_writes_.size() + pending_reads_.size() >= cfg_.max_batch;
    // The timer fires a cycle even with an empty batch while the pipeline
    // is active: "a periodical timer ... serves as an upper bound for the
    // offset between the start of two consensus cycles" (§7.1). Keeping
    // every super-leaf's cycle numbers aligned in wall-clock time is what
    // lets a cycle complete in ~1 RTT — a lagging super-leaf would stall
    // everyone's fetches. The consecutive-empty guard lets a fully idle
    // system quiesce instead of ticking forever.
    const bool keep_cadence =
        local_work || (!idle && empty_streak_ < cfg_.max_outstanding_cycles);
    go = prompted_ || batch_full || (timer_fired && keep_cadence) ||
         (idle && local_work);
  }
  if (go) start_cycle(last_started_ + 1);
}

void CanopusNode::start_cycle(CycleId c) {
  assert(c == last_started_ + 1);
  CycleState& cs = cycle(c);
  cs.started = true;
  last_started_ = c;
  prompted_ = false;

  // Cap the batch (paper §7.1: "...or after 1000 requests have
  // accumulated"). Without the cap, a transient slowdown snowballs: the
  // next cycle drains a larger backlog, producing larger proposals, which
  // slow the cycle further. With it, overload degrades gracefully into
  // client-visible queueing delay.
  // The batch is an exact-size copy; pending_writes_ and pending_reads_
  // keep their capacity for the next cycle.
  std::vector<kv::Request> batch;
  if (pending_writes_.size() <= cfg_.max_batch) {
    batch.assign(pending_writes_.begin(), pending_writes_.end());
    pending_writes_.clear();
    cs.reads.swap(pending_reads_);
    pending_reads_.clear();
  } else {
    batch.assign(pending_writes_.begin(),
                 pending_writes_.begin() +
                     static_cast<std::ptrdiff_t>(cfg_.max_batch));
    pending_writes_.erase(pending_writes_.begin(),
                          pending_writes_.begin() +
                              static_cast<std::ptrdiff_t>(cfg_.max_batch));
    // Reads positioned within the drained prefix go now; later reads stay
    // behind, with positions rebased onto the remaining writes.
    std::vector<PendingRead> later;
    for (PendingRead& r : pending_reads_) {
      if (r.pos <= cfg_.max_batch) {
        cs.reads.push_back(r);
      } else {
        r.pos -= cfg_.max_batch;
        later.push_back(r);
      }
    }
    pending_reads_ = std::move(later);
  }
  cs.own_writes = batch.size();
  empty_streak_ =
      batch.empty() && cs.reads.empty() ? empty_streak_ + 1 : 0;

  proto::Proposal p;
  p.cycle = c;
  p.round = 1;
  p.vnode = lot_->leaf_of(node_id());
  p.number = rng()();
  p.tiebreak = node_id();
  p.writes =
      std::make_shared<const std::vector<kv::Request>>(std::move(batch));
  p.membership = std::move(pending_membership_);
  pending_membership_.clear();

  rb_->broadcast(p, p.wire_bytes());

  // Re-prompt if traffic for even-later cycles is already buffered, so the
  // next start is not lost (§7.1 starts cycles strictly in sequence).
  prompted_ = false;
  for (auto it = cycles_.upper_bound(last_started_); it != cycles_.end();
       ++it) {
    const CycleState& later = it->second;
    const bool has_traffic =
        !later.parked_requests.empty() ||
        std::ranges::any_of(later.acc,
                            [](const auto& m) { return !m.empty(); });
    if (has_traffic) {
      prompted_ = true;
      break;
    }
  }

  if (cfg_.pipelining) arm_pipeline_timer();
}

void CanopusNode::arm_pipeline_timer() {
  if (pipeline_timer_ != simnet::kInvalidEvent) sim().cancel(pipeline_timer_);
  pipeline_timer_ = after(cfg_.cycle_interval, [this] {
    pipeline_timer_ = simnet::kInvalidEvent;
    maybe_start_next_cycle(/*timer_fired=*/true);
    // Keep ticking while cycles are in flight so batched work is not
    // stranded waiting for a prompt.
    if (last_started_ != last_committed_) arm_pipeline_timer();
  });
}

// --------------------------------------------------------------------------
// Proposal flow (§4.2)
// --------------------------------------------------------------------------

void CanopusNode::handle_rb_deliver(NodeId /*origin*/,
                                    const simnet::Payload& payload) {
  if (crashed_) return;
  const auto* p = payload.as<proto::Proposal>();
  if (p == nullptr) return;
  // Stale delivery for a committed cycle: a straggler entry drained from a
  // dissolved group, or — after a rejoin — the retained log tail replayed
  // while our fresh follower groups caught up. Recreating CycleState for
  // it would leak (the cycle may already be pruned) and can never change
  // the commit.
  if (p->cycle <= last_committed_) return;
  if (p->cycle > last_started_) {
    prompted_ = true;
    // §7.1: always start cycles in sequence, never skip to p->cycle.
    maybe_start_next_cycle();
  }
  add_proposal(p->cycle, *p);
}

void CanopusNode::add_proposal(CycleId c, const proto::Proposal& p) {
  CycleState& cs = cycle(c);
  auto& round_acc = cs.acc[p.round];
  if (has_vnode(round_acc, p.vnode)) return;  // duplicate
  round_acc.push_back(p);

  // A satisfied fetch no longer needs its retry timer.
  if (auto it = cs.fetches.find(p.vnode); it != cs.fetches.end()) {
    if (it->second.timer != simnet::kInvalidEvent)
      sim().cancel(it->second.timer);
    cs.fetches.erase(it);
  }
  try_complete_round(c, p.round);
}

void CanopusNode::try_complete_round(CycleId c, RoundId r) {
  // Cycles before our own activation are committed via root-state fetches
  // (rejoin catch-up), never via the round machinery: our rebuilt groups
  // may be missing broadcasts of members whose groups dissolved before we
  // rejoined, so a local merge could disagree with the survivors'.
  if (c < own_active_from_) return;
  CycleState& cs = cycle(c);
  if (cs.complete || cs.rounds_done != r - 1) return;
  const auto& got = cs.acc[r];

  if (r == 1) {
    if (!cs.started) return;
    // Need the round-1 proposal of every *currently live* super-leaf peer
    // that is already contributing (a rejoined member only counts from its
    // agreed activation cycle). Exclusions are ordered after the excluded
    // node's final committed broadcasts (see rbcast), so this set is
    // consistent across survivors.
    for (NodeId m : sl_live_) {
      if (active_from(m) > c) continue;
      if (!has_vnode(got, lot_->leaf_of(m))) return;
    }
  } else {
    for (VnodeId child : lot_->children(lot_->ancestor(node_id(), r))) {
      if (!has_vnode(got, child)) return;
    }
  }
  complete_round(c, r);
}

void CanopusNode::complete_round(CycleId c, RoundId r) {
  CycleState& cs = cycle(c);
  const auto h = static_cast<RoundId>(lot_->height());

  // Sort this round's inputs by (proposal number, tiebreak) — the paper's
  // randomized total order with deterministic tie-breaks. round_inputs_ is
  // reused by the recursive add_proposal below: it is not read after it.
  auto& inputs = round_inputs_;
  inputs.clear();
  for (const proto::Proposal& p : cs.acc[r]) inputs.push_back(&p);
  std::sort(inputs.begin(), inputs.end(),
            [](const proto::Proposal* a, const proto::Proposal* b) {
              return *a < *b;
            });

  // Merge: concatenate request sets in sorted order; membership updates are
  // unioned; the merged proposal number is the round's max (§4.2).
  const VnodeId own_child =
      r == 1 ? lot_->leaf_of(node_id()) : lot_->ancestor(node_id(), r - 1);
  auto merged_writes = std::make_shared<std::vector<kv::Request>>();
  std::size_t total = 0;
  for (const auto* p : inputs) total += p->write_count();
  merged_writes->reserve(total);
  // Protocol CPU: merging/sorting this round's request lists.
  net().busy(node_id(),
             static_cast<Time>(total) * cfg_.cpu_per_write / 2);

  proto::Proposal merged;
  std::size_t prefix = 0;
  bool before_own = true;
  for (const auto* p : inputs) {
    if (p->vnode == own_child) before_own = false;
    if (before_own) prefix += p->write_count();
    if (p->writes)
      merged_writes->insert(merged_writes->end(), p->writes->begin(),
                            p->writes->end());
    merged.membership.insert(merged.membership.end(), p->membership.begin(),
                             p->membership.end());
  }
  // own_prefix accumulates, round by round, the number of writes globally
  // ordered before this node's own request set.
  cs.own_prefix += prefix;

  merged.cycle = c;
  merged.round = r + 1;
  merged.vnode = lot_->ancestor(node_id(), static_cast<int>(r));
  merged.number = inputs.back()->number;
  merged.tiebreak = inputs.back()->tiebreak;
  merged.writes = std::move(merged_writes);

  cs.state[r] = std::move(merged);
  cs.rounds_done = r;
  if (on_round_done) on_round_done(c, r);

  answer_parked(c, r);

  if (r == h) {
    cs.complete = true;
    try_commit();
    return;
  }
  // Feed our own subtree's state into the next round and fetch siblings.
  add_proposal(c, *cs.state[r]);
  begin_fetches(c, r + 1);
}

void CanopusNode::answer_parked(CycleId c, RoundId r) {
  CycleState& cs = cycle(c);
  const VnodeId v = lot_->ancestor(node_id(), static_cast<int>(r));
  auto it = cs.parked_requests.find(v);
  if (it == cs.parked_requests.end()) return;
  const proto::Proposal& p = *cs.state[r];
  for (NodeId dst : it->second) send(dst, p.wire_bytes(), p);
  cs.parked_requests.erase(it);
}

// --------------------------------------------------------------------------
// Representatives and fetching (§4.5, §4.6)
// --------------------------------------------------------------------------

std::span<const NodeId> CanopusNode::current_reps() const {
  const auto k = static_cast<std::size_t>(cfg_.representatives);
  return {sl_live_.data(), std::min(k, sl_live_.size())};
}

int CanopusNode::rep_index() const {
  const auto reps = current_reps();
  const auto it = std::find(reps.begin(), reps.end(), node_id());
  return it == reps.end() ? -1 : static_cast<int>(it - reps.begin());
}

bool CanopusNode::is_representative() const { return rep_index() >= 0; }

void CanopusNode::begin_fetches(CycleId c, RoundId r) {
  CycleState& cs = cycle(c);
  if (cs.rounds_done != r - 1 || cs.complete) return;
  const int idx = rep_index();
  if (idx < 0) return;

  const int k = static_cast<int>(current_reps().size());
  const int redundancy = std::min(cfg_.redundant_fetch, k);

  for (VnodeId v : lot_->children(lot_->ancestor(node_id(), r))) {
    if (has_vnode(cs.acc[r], v)) continue;     // already have it
    if (cs.fetches.contains(v)) continue;      // already fetching
    // Modulo assignment with redundancy (§4.5): vnode v is fetched by
    // representatives (v + j) % k for j in [0, redundancy).
    bool mine = false;
    for (int j = 0; j < redundancy && !mine; ++j)
      mine = static_cast<int>((v + static_cast<VnodeId>(j)) %
                              static_cast<VnodeId>(k)) == idx;
    if (mine) issue_fetch(c, v);
  }
}

void CanopusNode::issue_fetch(CycleId c, VnodeId v) {
  CycleState& cs = cycle(c);
  FetchState& fs = cs.fetches[v];

  const auto& emulators = emu_.emulators(v);
  if (!emulators.empty()) {
    // Spread across emulators deterministically; retries walk the list.
    const std::size_t pick =
        (mix(node_id(), v, c) + static_cast<std::size_t>(fs.attempt)) %
        emulators.size();
    proto::ProposalRequest pr;
    pr.cycle = c;
    pr.round = static_cast<RoundId>(lot_->level(v)) + 1;
    pr.vnode = v;
    send(emulators[pick], proto::ProposalRequest::kWire, pr);
  }
  // Whether or not an emulator was available, retry until the state
  // arrives (add_proposal cancels the timer). If every descendant of v is
  // gone, this retries forever: the protocol stalls, as specified (§6).
  ++fs.attempt;
  fs.timer = after(cfg_.fetch_timeout, [this, c, v] {
    // The cycle may be gone by now: committed and pruned (a root-state
    // install completes the cycle without touching sibling fetches), or
    // dropped wholesale by enter_joining. Looking it up with cycle() would
    // RE-CREATE an empty, forever-uncommitted husk below last_committed_
    // that wedges prune_history and makes retained state grow without
    // bound — so probe the map, never materialize.
    if (crashed_ || joining_ || c <= last_committed_) return;
    auto mit = cycles_.find(c);
    if (mit == cycles_.end()) return;  // pruned: stale timer
    CycleState& s = mit->second;
    auto it = s.fetches.find(v);
    if (it == s.fetches.end() || s.complete) return;
    // Keep the FetchState (and its attempt counter) so the retry walks to
    // the next emulator instead of re-picking the same possibly-dead one.
    it->second.timer = simnet::kInvalidEvent;
    issue_fetch(c, v);
  });
}

void CanopusNode::handle_proposal_request(NodeId src,
                                          const proto::ProposalRequest& pr) {
  if (pr.cycle > last_started_) {
    prompted_ = true;
    maybe_start_next_cycle();  // §4.4: cross-super-leaf prompting
  }
  // Committed-and-pruned cycles can no longer be served (the requester is
  // stalled beyond recovery by fetching; a rejoining node requests only
  // cycles inside the retained window, see prune_history).
  if (pr.cycle <= last_committed_ && !cycles_.contains(pr.cycle)) return;
  CycleState& cs = cycle(pr.cycle);
  const auto r = static_cast<RoundId>(lot_->level(pr.vnode));
  if (cs.rounds_done >= r && cs.state[r].has_value()) {
    const proto::Proposal& p = *cs.state[r];
    assert(p.vnode == pr.vnode);
    send(src, p.wire_bytes(), p);
  } else {
    // §4.7 event 3: buffer the request, answer when the round completes.
    cs.parked_requests[pr.vnode].push_back(src);
  }
}

void CanopusNode::handle_fetched_proposal(const proto::Proposal& p) {
  // Rejoin catch-up: a fetched *root* state is the cycle's final merged
  // result — install it directly and commit, without running rounds or
  // re-broadcasting (peers would index acc[height+1] out of bounds, and
  // our rebuilt groups may be missing dissolved-group broadcasts anyway).
  const auto h = static_cast<RoundId>(lot_->height());
  if (p.round > h) {
    if (p.cycle <= last_committed_) return;
    CycleState& rcs = cycle(p.cycle);
    if (rcs.complete) return;
    if (auto it = rcs.fetches.find(p.vnode); it != rcs.fetches.end()) {
      if (it->second.timer != simnet::kInvalidEvent)
        sim().cancel(it->second.timer);
      rcs.fetches.erase(it);
    }
    rcs.state[h] = p;
    rcs.rounds_done = h;
    rcs.complete = true;
    try_commit();
    return;
  }
  // A unicast reply to one of our proposal-requests: share it with the
  // super-leaf via reliable broadcast (§4.2). Duplicate fetches by
  // redundant representatives dedupe at add_proposal time.
  CycleState& cs = cycle(p.cycle);
  if (has_vnode(cs.acc[p.round], p.vnode)) return;
  if (auto it = cs.fetches.find(p.vnode); it != cs.fetches.end()) {
    if (it->second.timer != simnet::kInvalidEvent)
      sim().cancel(it->second.timer);
    cs.fetches.erase(it);
  }
  rb_->broadcast(p, p.wire_bytes());
}

// --------------------------------------------------------------------------
// Failure handling (§4.3, §4.6)
// --------------------------------------------------------------------------

void CanopusNode::handle_peer_failed(NodeId peer) {
  if (crashed_) return;
  if (peer == node_id()) {
    // Our own super-leaf suspected us (we fell behind long enough for our
    // broadcast group to elect a replacement leader). Crash-stop semantics
    // require fencing: a suspected node must not keep acting, or the
    // exclusion arguments of the agreement proof no longer hold.
    crash();
    return;
  }
  sl_live_.erase(std::remove(sl_live_.begin(), sl_live_.end(), peer),
                 sl_live_.end());
  rb_->remove_member(peer);
  // Piggyback the membership change on the next cycle's proposal (§4.6).
  pending_membership_.push_back(
      {proto::MembershipUpdate::Kind::kLeave, peer});
  // The exclusion may unblock round 1 of in-flight cycles, and may promote
  // this node to representative (re-evaluate fetch assignments).
  for (auto& [c, cs] : cycles_) {
    if (!cs.started || cs.complete || cs.committed) continue;
    try_complete_round(c, cs.rounds_done + 1);
    if (!cs.complete) begin_fetches(c, cs.rounds_done + 1);
  }
}

// --------------------------------------------------------------------------
// Commit (§5) and housekeeping
// --------------------------------------------------------------------------

void CanopusNode::try_commit() {
  // §7.1: commits happen strictly in cycle order, regardless of which
  // cycles completed first.
  while (true) {
    auto it = cycles_.find(last_committed_ + 1);
    if (it == cycles_.end() || !it->second.complete || it->second.committed)
      break;
    commit_cycle(last_committed_ + 1);
  }
  if (pending_rejoin_) {
    // A stale exclusion of this node committed after its rejoin: the
    // survivors have dropped us again, so our groups are dead. Go back
    // through the full join path rather than acting as a zombie member.
    pending_rejoin_ = false;
    rb_->stop();
    enter_joining();
    return;
  }
  maybe_start_next_cycle();
  flush_replies();
}

void CanopusNode::commit_cycle(CycleId c) {
  CycleState& cs = cycle(c);
  const auto h = static_cast<std::size_t>(lot_->height());
  const proto::Proposal& root = *cs.state[h];
  const std::vector<kv::Request>& writes = *root.writes;
  // Protocol CPU: applying this cycle's writes to the state machine.
  net().busy(node_id(),
             static_cast<Time>(writes.size()) * cfg_.cpu_per_write);

  // Reads are spliced at `own_prefix + pos`: after the pos-th own write of
  // this cycle, and before the next one — preserving each client's FIFO
  // order while inheriting the global write order (§5).
  auto next_read = cs.reads.begin();
  for (std::size_t i = 0; i <= writes.size(); ++i) {
    while (next_read != cs.reads.end() &&
           cs.own_prefix + next_read->pos == i) {
      answer_read(next_read->req);
      ++next_read;
    }
    if (i == writes.size()) break;
    apply_write(writes[i]);
    ack_write(writes[i]);
  }

  // Membership updates agreed in this cycle take effect now, identically on
  // every live node (§4.6).
  std::vector<std::pair<NodeId, CycleId>> join_acks;
  for (const proto::MembershipUpdate& u : root.membership) {
    if (u.kind == proto::MembershipUpdate::Kind::kLeave) {
      emu_.remove(u.node);
      excluded_at_[u.node] = sim().now();
      if (u.node == node_id()) {
        // A stale exclusion of *this* node committed after its rejoin (the
        // kLeave was proposed before the kJoin but ordered after it). The
        // survivors drop us from their groups again; re-enter joining once
        // the commit loop unwinds (see try_commit).
        if (own_active_from_ > 0) pending_rejoin_ = true;
      } else if (rb_->is_member(u.node)) {
        rb_->remove_member(u.node);
        sl_live_.erase(
            std::remove(sl_live_.begin(), sl_live_.end(), u.node),
            sl_live_.end());
      }
      active_from_.erase(u.node);
      continue;
    }
    // kJoin: the agreed point. Every live node derives the same activation
    // cycle from the commit cycle, so round-1 completeness of the racing
    // in-flight window is evaluated identically everywhere: a peer can only
    // evaluate round 1 of cycle c' > act-1 after starting c', which (with
    // pipelining window K) requires last_committed_ >= c' - K > c, i.e.
    // after it, too, applied this kJoin.
    const CycleId act =
        c + (cfg_.pipelining ? cfg_.max_outstanding_cycles : 0) + 1;
    emu_.add(u.node);
    excluded_at_.erase(u.node);
    if (u.node != node_id() &&
        lot_->super_leaf_of(u.node) == lot_->super_leaf_of(node_id()) &&
        !rb_->is_member(u.node)) {
      active_from_[u.node] = act;
      rb_->add_member(u.node);
      // Keep sl_live_ in lot-roster order: current_reps() takes a prefix.
      const auto& order =
          lot_->super_leaf_members(lot_->super_leaf_of(node_id()));
      auto rank = [&](NodeId n) {
        return std::find(order.begin(), order.end(), n) - order.begin();
      };
      sl_live_.insert(
          std::upper_bound(sl_live_.begin(), sl_live_.end(), u.node,
                           [&](NodeId a, NodeId b) { return rank(a) < rank(b); }),
          u.node);
      const auto pj =
          std::find(pending_joiners_.begin(), pending_joiners_.end(), u.node);
      if (pj != pending_joiners_.end()) {
        pending_joiners_.erase(pj);
        join_acks.emplace_back(u.node, act);
      }
    }
  }

  // Sponsored joins agreed in this cycle: ship the state transfer now that
  // the membership loop has run, so the ack's liveness view reflects every
  // update of the cycle.
  for (const auto& [j, act] : join_acks) send_join_ack(j, c, act);

  // Write leases granted by this cycle (§7.2).
  if (cfg_.write_leases) {
    for (const kv::Request& w : writes)
      leases_[w.key] = c + cfg_.lease_cycles;
  }

  cs.committed = true;
  last_committed_ = c;
  if (on_commit) on_commit(c, writes);
  prune_history();
}

void CanopusNode::prune_history() {
  // Keep a window of committed cycles so that straggling super-leaves can
  // still fetch our vnode states; beyond the window they would be stalled
  // anyway (fetch_timeout * retries >> window * cycle time). Under
  // pipelining the window must also cover the rejoin catch-up span (the
  // pipelining depth): a joiner fetches the merged root state of every
  // cycle between its snapshot and its activation, and those fetches are
  // served from this history.
  const CycleId kKeep =
      cfg_.pipelining
          ? std::max<CycleId>(64, 2 * cfg_.max_outstanding_cycles)
          : 64;
  while (!cycles_.empty()) {
    auto it = cycles_.begin();
    if (it->first + kKeep >= last_committed_) break;
    // Commits are strictly in cycle order, so everything this far below
    // last_committed_ is retired — including any uncommitted husk a stale
    // fetch timer resurrected. Never block on the committed flag here: one
    // wedged entry would pin every later cycle in memory for the rest of
    // the run.
    drop_fetch_timers(it->second);
    spare_cycle_ = cycles_.extract(it);
    spare_cycle_.mapped().reset();
  }
}

void CanopusNode::drop_fetch_timers(CycleState& cs) {
  for (auto& [v, fs] : cs.fetches) {
    if (fs.timer != simnet::kInvalidEvent) {
      sim().cancel(fs.timer);
      fs.timer = simnet::kInvalidEvent;
    }
  }
}

}  // namespace canopus::core
