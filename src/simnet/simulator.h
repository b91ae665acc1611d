// Discrete-event simulation kernel: virtual clock + event queues + RNG.
//
// Fully deterministic: a run is a pure function of the seed and the
// registered processes. Protocol code never reads wall-clock time or
// global randomness.
//
// Two scheduling currencies (see event_queue.h): closures via at()/after()
// for timers, and typed MessageEvents via at_message() for the network's
// per-message pipeline — the latter is plain pooled data, so the message
// hot path schedules without allocating.
//
// ## Sharded (PDES) execution — DESIGN.md §10
//
// The kernel can partition the simulation into SHARDS (one per topology
// site by default, see make_shard_map) and run one worker thread per
// shard, conservatively synchronized by the cross-shard link latencies
// (the lookahead). The cardinal invariant is BIT-IDENTITY: run() and
// run_parallel_until() execute the exact same events in the exact same
// total order, so commit digests, network statistics and event counts
// match to the bit (tests/workload/pdes_determinism_test.cpp).
//
// The mechanism is a LANE discipline on tie-break sequence numbers. Every
// event source is a lane — one per node, one per link, plus one control
// lane — and an event's seq is (lane << 40) | ++per_lane_counter. A
// lane's counter is only ever advanced by the shard that owns the lane
// (the control lane by the coordinator, at barriers), so each lane's
// counter sequence depends only on that lane's own execution history and
// is therefore independent of the shard map. The (time, seq) total order
// the serial loop executes is exactly the order the conservative parallel
// loop is allowed to execute, shard by shard.
//
// Scheduling contexts:
//  * inside an event handler, at()/after() inherit the firing event's
//    lane — a node's timers live on that node's lane and never leave its
//    shard;
//  * outside execution (setup code, and control-plane closures fired at
//    barriers) they use the control lane, which is the numerically
//    LARGEST lane: at equal times, control events fire after all shard
//    events, which is what lets the parallel coordinator run them at a
//    global barrier;
//  * Network passes explicit producer lanes and target shards to
//    at_message(); a hand-off whose target is another shard crosses via a
//    bounded SPSC ring (spsc.h), never a lock and never an allocation.
#pragma once

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "simnet/event_queue.h"
#include "simnet/spsc.h"
#include "simnet/topology.h"

namespace canopus::simnet {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 0x5eed) : seed_(seed), rng_(seed) {
    install_default();
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Context-aware clock: a worker thread sees its shard's local virtual
  /// time; everyone else (serial execution, setup code, control closures
  /// at barriers) sees the global clock.
  Time now() const { return tl_ctx_.sim == this ? tl_ctx_.now : now_; }

  /// The trial seed every deterministic stream derives from (per-node
  /// process RNGs are seeded as derive_seed(derive_seed(seed(), salt), id)
  /// so their draws are independent of execution interleaving).
  std::uint64_t seed() const { return seed_; }

  /// Setup/control-plane RNG. NOT for protocol code running inside node
  /// events — under sharded execution the draw order would depend on the
  /// schedule; use the per-process RNG (Process::rng()) instead.
  Rng& rng() { return rng_; }

  // --- shard configuration ---------------------------------------------

  /// Adopts a node/link -> shard partition (see make_shard_map) and
  /// precomputes the pairwise lookahead matrix from `topo`. Must be called
  /// before the Network is constructed and before anything is scheduled.
  void configure_shards(const Topology& topo, ShardMap map);

  /// Registers the topology dimensions with a trivial single-shard map.
  /// Called by the Network constructor; a no-op when configure_shards()
  /// already installed a map for the same topology.
  void init_topology(std::size_t num_nodes, std::size_t num_links);

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t node_shard(NodeId n) const { return lane_shard_[n]; }
  std::uint32_t link_shard(LinkId l) const {
    return lane_shard_[num_nodes_ + l];
  }
  std::uint32_t link_lane(LinkId l) const {
    return static_cast<std::uint32_t>(num_nodes_ + l);
  }
  /// The worker shard executing the current event, or `fallback` outside
  /// worker context (serial execution, setup, control closures). Network
  /// uses this to index its per-shard statistics slots.
  std::uint32_t exec_shard(std::uint32_t fallback) const {
    return tl_ctx_.sim == this ? tl_ctx_.shard : fallback;
  }

  // --- scheduling -------------------------------------------------------

  /// Schedules `fn` at absolute time `t` (clamped to now). Inside an event
  /// handler the closure inherits the firing event's lane; outside it uses
  /// the control lane (fires at a global barrier under sharded execution).
  EventId at(Time abs_time, InlineFn fn);

  EventId after(Time delay, InlineFn fn) {
    if (delay < 0) delay = 0;
    // Per-node clock skew (gray fault plane, DESIGN.md §13): a skewed
    // node's nominal delay is transformed at arming time. skewed_nodes_
    // is only written by fault events at control barriers (workers
    // parked), so the guard read is race-free under sharded execution.
    if (skewed_nodes_ != 0) delay = skewed_delay(delay);
    const Time base = now();
    return at(base + delay, std::move(fn));
  }

  /// Skews node n's timer clock: delays armed via after() from n's
  /// execution context become round(delay / rate) + offset (clamped >= 0).
  /// rate > 1 is a fast clock (timers fire early), rate < 1 a slow one;
  /// offset is a constant lag. rate 1 / offset 0 clears the skew. Call
  /// from control context only (fault events, setup code) — the tables
  /// are read by every worker.
  void set_clock_skew(NodeId n, double rate, Time offset);

  /// Schedules `fn` on node `n`'s lane from OUTSIDE execution (attach-time
  /// on_start hooks). The closure runs in n's shard, and everything it
  /// schedules stays there.
  EventId at_node(NodeId n, Time abs_time, InlineFn fn);

  /// Schedules a typed message event produced by `lane` to execute in
  /// `shard`. The producer lane must be owned by the scheduling context's
  /// shard; crossing into another shard rides the SPSC ring and is only
  /// legal along a positive-lookahead edge (enforced by make_shard_map).
  void at_message(Time abs_time, std::uint32_t lane, std::uint32_t shard,
                  MessageEvent&& ev);

  void cancel(EventId id);

  // --- execution --------------------------------------------------------

  /// Runs serially until every queue drains. Returns events processed.
  std::uint64_t run();

  /// Runs events with time <= deadline serially, then advances the clock
  /// to exactly `deadline`. Returns events processed.
  std::uint64_t run_until(Time deadline);

  /// Sharded execution of exactly the events run_until() would execute, in
  /// the same total order per shard — one worker thread per configured
  /// shard, conservatively synchronized on the topology's cross-shard
  /// lookahead; control-lane events fire at global barriers. Bit-identical
  /// to run_until() by construction. Returns events processed.
  std::uint64_t run_parallel_until(Time deadline);

  std::uint64_t events_processed() const { return events_; }
  bool idle() const {
    if (!ctl_q_.empty()) return false;
    for (const auto& s : shards_)
      if (!s->q.empty()) return false;
    return true;
  }

  /// Process-wide count of events processed by every Simulator instance
  /// (all threads). The bench harness derives events/second from deltas of
  /// this counter; it is updated once per run call, not per event.
  static std::uint64_t global_events() {
    return global_events_.load(std::memory_order_relaxed);
  }

 private:
  /// One shard: its event queue plus the clock/state words its worker
  /// publishes. eot ("earliest output time") is the conservative promise
  /// "this shard will never again execute, and therefore never again
  /// produce, an event below this time"; neighbors execute strictly below
  /// min over in-edges of (eot + lookahead). state is gen-stamped
  /// (see state_word) so the coordinator's quiescence check can't accept
  /// a report from before the last barrier.
  struct alignas(64) Shard {
    EventQueue q;
    std::uint64_t events = 0;  ///< worker-local; read after join
    alignas(64) std::atomic<Time> eot{0};
    alignas(64) std::atomic<std::uint64_t> state{0};
  };

  /// Worker-thread execution context. tl_ctx_.sim discriminates: set only
  /// while a worker of THIS simulator executes events.
  struct ExecCtx {
    Simulator* sim = nullptr;
    std::uint32_t shard = 0;
    std::uint32_t lane = 0;
    Time now = 0;
  };
  static thread_local ExecCtx tl_ctx_;

  /// EventId top byte routes cancel() to the owning queue without lookup.
  static constexpr std::uint32_t kCtlTag = 0xff;
  static constexpr EventId kIdMask = (EventId{1} << 56) - 1;
  static EventId tag_id(std::uint32_t tag, EventId id) {
    return id == kInvalidEvent ? id : (static_cast<EventId>(tag) << 56) | id;
  }

  /// [63..33] progress (executed + drained, wrap-tolerant: only equality
  /// matters) | [32] idle | [31..0] barrier generation.
  static std::uint64_t state_word(std::uint32_t gen, std::uint64_t progress,
                                  bool idle) {
    return (progress << 33) | (std::uint64_t{idle} << 32) | gen;
  }
  static std::uint32_t state_gen(std::uint64_t w) {
    return static_cast<std::uint32_t>(w);
  }
  static bool state_idle(std::uint64_t w) { return (w >> 32) & 1; }

  std::uint64_t lane_seq(std::uint32_t lane) {
    assert(lane < lane_ctr_.size());
    // Pre-increment: seq 0 is the queue's disarmed-slot sentinel, so the
    // first seq on lane 0 must be 1, not 0. A counter past 2^40 would
    // bleed into the lane bits and corrupt the (time, seq) tie-break.
    const std::uint64_t n = ++lane_ctr_[lane];
    assert((n >> 40) == 0 && "per-lane seq counter overflowed lane packing");
    return (static_cast<std::uint64_t>(lane) << 40) | n;
  }
  static std::uint32_t seq_lane(std::uint64_t seq) {
    return static_cast<std::uint32_t>(seq >> 40);
  }

  void install(const ShardMap& map, std::vector<Time> lookahead,
               std::size_t nodes, std::size_t links);
  void install_default();
  SpscEventRing* ring(std::uint32_t from, std::uint32_t to) const {
    return rings_[from * shards_.size() + to].get();
  }

  /// Picks the globally earliest event over the control queue and every
  /// shard queue (the serial merge). Returns nullptr when all are empty.
  EventQueue* earliest_queue(EventQueue::Key& key);

  // Parallel machinery (simulator.cpp).
  void worker_loop(std::uint32_t me);
  void drain_inbound(std::uint32_t me, std::uint64_t& progress);
  void handoff_full_wait(SpscEventRing& r);
  bool quiesced(std::uint32_t gen, std::vector<std::uint64_t>& scratch);
  void park_workers();
  void drain_ctl_cancels();

  Time now_ = 0;
  std::uint32_t cur_lane_ = 0;  ///< lane of the serially-executing event
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t events_ = 0;

  /// The lane whose execution context is scheduling right now: the firing
  /// event's lane inside a handler, the control lane otherwise.
  std::uint32_t ctx_lane() const {
    return tl_ctx_.sim == this ? tl_ctx_.lane : cur_lane_;
  }

  /// Applies the scheduling context's node skew to a nominal timer delay.
  /// Only node lanes skew — link and control lanes keep true time (faults
  /// and audit probes must fire when the schedule says, not when a drifted
  /// node thinks they should).
  Time skewed_delay(Time delay) const {
    const std::uint32_t lane = ctx_lane();
    if (lane >= num_nodes_) return delay;
    const double r = skew_rate_[lane];
    if (r != 1.0)
      delay = static_cast<Time>(
          std::llround(static_cast<double>(delay) / r));
    delay += skew_offset_[lane];
    return delay < 0 ? 0 : delay;
  }

  // Lane tables: nodes 0..N-1, links N..N+L-1, control N+L (largest).
  std::size_t num_nodes_ = 0;
  std::size_t num_links_ = 0;
  std::uint32_t control_lane_ = 0;
  bool configured_ = false;  ///< a topology's map was installed
  std::vector<std::uint64_t> lane_ctr_;
  std::vector<std::uint32_t> lane_shard_;  ///< per non-control lane

  // Per-node clock skew (set_clock_skew). Written at control barriers
  // only; the barrier handshake publishes the writes to workers, exactly
  // like up_/severed_ in the Network.
  std::vector<double> skew_rate_;
  std::vector<Time> skew_offset_;
  int skewed_nodes_ = 0;  ///< nonzero skews in flight (hot-path guard)

  EventQueue ctl_q_;  ///< control-lane events; fired at barriers
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SpscEventRing>> rings_;  ///< [from*K + to]
  std::vector<Time> lookahead_;                        ///< [from*K + to]

  // Coordinator <-> worker channel (run_parallel_until only).
  std::atomic<Time> ctl_limit_{0};
  std::atomic<std::uint32_t> ctl_gen_{0};
  std::atomic<std::uint32_t> stop_acks_{0};
  std::atomic<bool> ctl_stop_{false};
  std::atomic<bool> done_{false};

  // Worker-context cancels of control-lane timers (armed by control code —
  // e.g. a heal closure restarting a node's election timer — and later
  // reset by the node itself). The control queue belongs to the
  // coordinator, so workers enqueue the id here; the coordinator applies
  // the batch at each barrier BEFORE firing, which is exactly when the
  // serial merge would have applied it: control events cannot fire between
  // barriers, so a cancel deferred to the next barrier can never lose the
  // race against its target. Cold path (faults only) — a mutex is fine.
  std::mutex ctl_cancel_mu_;
  std::vector<EventId> ctl_cancels_;

  static std::atomic<std::uint64_t> global_events_;
};

// --- hot-path inline definitions -------------------------------------------

inline EventId Simulator::at(Time abs_time, InlineFn fn) {
  if (tl_ctx_.sim == this) {
    // Worker context: inherit the firing event's lane. Only node-lane (and
    // at barriers, control-lane) events schedule closures, so the lane is
    // owned by this worker's shard — closures never cross shards.
    const std::uint32_t lane = tl_ctx_.lane;
    assert(lane < control_lane_ && lane_shard_[lane] == tl_ctx_.shard);
    if (abs_time < tl_ctx_.now) abs_time = tl_ctx_.now;
    return tag_id(tl_ctx_.shard, shards_[tl_ctx_.shard]->q.schedule(
                                     abs_time, lane_seq(lane), std::move(fn)));
  }
  if (abs_time < now_) abs_time = now_;
  const std::uint32_t lane = cur_lane_;
  if (lane == control_lane_)
    return tag_id(kCtlTag,
                  ctl_q_.schedule(abs_time, lane_seq(lane), std::move(fn)));
  const std::uint32_t s = lane_shard_[lane];
  return tag_id(s,
                shards_[s]->q.schedule(abs_time, lane_seq(lane), std::move(fn)));
}

inline EventId Simulator::at_node(NodeId n, Time abs_time, InlineFn fn) {
  assert(tl_ctx_.sim != this && n < num_nodes_);
  if (abs_time < now_) abs_time = now_;
  const std::uint32_t s = lane_shard_[n];
  return tag_id(s, shards_[s]->q.schedule(abs_time, lane_seq(n), std::move(fn)));
}

inline void Simulator::at_message(Time abs_time, std::uint32_t lane,
                                  std::uint32_t shard, MessageEvent&& ev) {
  if (tl_ctx_.sim == this) {
    assert(lane_shard_[lane] == tl_ctx_.shard);
    if (abs_time < tl_ctx_.now) abs_time = tl_ctx_.now;
    const std::uint64_t seq = lane_seq(lane);
    if (shard == tl_ctx_.shard) {
      shards_[shard]->q.schedule_message(abs_time, seq, std::move(ev));
      return;
    }
    // Cross-shard hand-off: bounded ring, preallocated per positive-
    // lookahead edge. The full-ring wait lives in the cold path
    // (simulator.cpp); steady state is a single in-place push.
    SpscEventRing& r = *ring(tl_ctx_.shard, shard);
    if (r.full()) handoff_full_wait(r);
    r.push(abs_time, seq, std::move(ev));
    return;
  }
  if (abs_time < now_) abs_time = now_;
  shards_[shard]->q.schedule_message(abs_time, lane_seq(lane), std::move(ev));
}

inline void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const auto tag = static_cast<std::uint32_t>(id >> 56);
  if (tl_ctx_.sim == this && tag == kCtlTag) {
    // Worker cancelling a control-lane event: defer to the coordinator
    // (see ctl_cancels_). Stale ids are harmless — EventQueue::cancel is
    // generation-checked.
    std::lock_guard<std::mutex> lock(ctl_cancel_mu_);
    ctl_cancels_.push_back(id);
    return;
  }
  // Timers are lane-local, so a worker only ever cancels events in its own
  // shard's queue; control-context cancels happen at barriers. A foreign
  // tag here would race the owning worker's queue (heap corruption), so
  // fail hard even in release rather than cancel concurrently.
  if (tl_ctx_.sim == this && tag != tl_ctx_.shard) {
    assert(false && "worker cancel targets an event owned by another shard");
    std::abort();
  }
  EventQueue& q = tag == kCtlTag ? ctl_q_ : shards_[tag]->q;
  q.cancel(id & kIdMask);
}

}  // namespace canopus::simnet
