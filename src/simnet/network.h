// Network: routes Messages through the Topology with queueing and CPU cost.
//
// Cost model (DESIGN.md §4.2):
//  * Each link has a FIFO "next free" time; a message of b bytes occupies a
//    link for b/bandwidth, then propagates for the link latency. Concurrent
//    traffic on an oversubscribed uplink therefore queues — this is what
//    makes broadcast-heavy protocols plateau.
//  * Each node has a serial CPU. Sending charges a fixed per-message cost
//    plus a per-byte cost; receiving likewise. This bounds per-node request
//    throughput and is what exposes the centralized-coordinator bottleneck
//    in Zab and the O(n) work per command in EPaxos.
//
// Fault injection: nodes can crash (messages to/from them are dropped) and
// directed node pairs can be severed to emulate partitions, even though the
// paper assumes partitions are rare — tests use this to exercise Canopus'
// documented stall behaviour.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/api.h"
#include "simnet/message.h"
#include "simnet/simulator.h"
#include "simnet/topology.h"

namespace canopus::simnet {

class Process;

/// Per-node processing cost parameters; the experiment defaults and their
/// calibration rationale are documented in EXPERIMENTS.md ("Cost-model
/// parameters"). Protocol-level per-request work is charged separately via
/// Network::busy() by each protocol implementation.
struct CpuModel {
  Time send_fixed = 1'000;    ///< ns per message sent
  Time recv_fixed = 1'000;    ///< ns per message received
  double ns_per_byte = 0.5;   ///< serialization/deserialization cost
};

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected by dup windows
  std::uint64_t reordered = 0;   ///< sends that drew a reorder jitter
};

/// Network is also the simulated backend's runtime::Host: drivers written
/// against the Host seam (ConsensusService, deployments) work unchanged on
/// either backend. post() runs inline — between run() slices the driver
/// thread IS every node's execution context.
class Network : public MessageEventTarget, public runtime::Host {
 public:
  Network(Simulator& sim, Topology topo, CpuModel cpu = {});

  /// Registers the process handling messages addressed to `id`.
  /// The process must outlive the network.
  void attach(NodeId id, Process& proc) override;

  /// Sends a message; delivery is scheduled through the link/CPU model.
  void send(Message m);

  /// Local (same-node) hand-off: skips links, still charges CPU.
  void send_local(Message m);

  /// Charges `cost` of protocol-level compute (sorting, dependency checks,
  /// state-machine work) to a node's serial CPU. Subsequent sends and
  /// deliveries at that node queue behind it.
  void busy(NodeId n, Time cost) {
    if (cost <= 0) return;
    const Time now = sim_.now();
    cpu_free_[n] = std::max(now, cpu_free_[n]) + scaled_cpu(n, cost);
  }

  // --- fault injection -----------------------------------------------
  void crash(NodeId n) override;
  void recover(NodeId n) override;
  bool is_up(NodeId n) const override { return up_[n]; }
  /// Severs/heals the directed pair a -> b.
  void sever(NodeId a, NodeId b) override;
  void heal(NodeId a, NodeId b) override;

  // --- gray-failure fault plane (DESIGN.md §13) -----------------------
  // All of these mutate only scalar per-node slots or map *structure*;
  // under sharded execution they are driven by fault events, which fire at
  // control barriers with every worker parked — the same write discipline
  // as up_/severed_.
  /// Multiplies node n's compute costs (send/recv/busy) by `factor` (> 0);
  /// 1.0 restores normal speed. A degraded node is slow, not dead.
  void set_cpu_factor(NodeId n, double factor);
  double cpu_factor(NodeId n) const { return cpu_factor_[n]; }
  /// The directed pair a -> b oscillates: down for the first half of every
  /// `period` (> 0), up for the second, phase-anchored at the current time.
  void flap(NodeId a, NodeId b, Time period);
  void flap_stop(NodeId a, NodeId b);
  /// Every message a -> b is delivered twice; the echo enters the wire
  /// `echo_delay` after the original.
  void duplicate(NodeId a, NodeId b, Time echo_delay);
  void duplicate_stop(NodeId a, NodeId b);
  /// Every message a -> b has a seeded per-message jitter in [0, max_jitter]
  /// added before its first hop, so back-to-back sends can swap on the wire.
  /// The jitter stream is a pure function of (trial seed, pair, message
  /// count on the pair) — deterministic under any shard map, because only
  /// the source node's lane ever draws from it.
  void reorder(NodeId a, NodeId b, Time max_jitter);
  void reorder_stop(NodeId a, NodeId b);
  /// Skews node n's timer clock (Simulator::after): nominal delays divide
  /// by `rate` and stretch by `offset`. Host-seam parity with the threaded
  /// backend's timer-arming skew (runtime/threaded.h).
  void set_clock_skew(NodeId n, double rate, Time offset) override;

  /// Host::post — simulated backend: the caller is already the (only)
  /// execution thread, so the closure runs inline.
  void post(NodeId /*n*/, InlineFn fn) override { fn(); }

  // --- observability --------------------------------------------------
  /// Aggregated over the per-shard slots (the counters are sharded so
  /// concurrent workers never contend); call from outside execution or at
  /// a barrier for an exact value.
  NetworkStats stats() const {
    NetworkStats total;
    for (const ShardSlot& s : slots_) {
      total.messages += s.stats.messages;
      total.bytes += s.stats.bytes;
      total.dropped += s.stats.dropped;
      total.duplicated += s.stats.duplicated;
      total.reordered += s.stats.reordered;
    }
    return total;
  }
  /// Total bytes that traversed a given link (for utilization assertions).
  std::uint64_t link_bytes(LinkId l) const { return link_bytes_[l]; }

  /// Diagnostics: worst queueing observed so far (how far a node's CPU or a
  /// link's serializer ran ahead of the clock). Useful for locating the
  /// saturated resource in capacity experiments.
  Time max_cpu_backlog(NodeId n) const {
    return n < cpu_backlog_.size() ? cpu_backlog_[n] : 0;
  }
  Time max_link_backlog(LinkId l) const {
    return l < link_backlog_.size() ? link_backlog_[l] : 0;
  }
  const Topology& topo() const { return topo_; }

  /// Optional delivery trace hook (time, message) fired at delivery.
  /// Serial-execution diagnostic only: the hook runs from whichever shard
  /// dispatches the message, so under run_parallel_until() it would need
  /// its own synchronization — don't combine tracing with sharded runs.
  using TraceFn = std::function<void(Time, const Message&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  Simulator& sim() { return sim_; }

 private:
  /// Every per-message step (hop arrival, local delivery, receiver-CPU-done
  /// dispatch) is scheduled as a typed MessageEvent — plain pooled data in
  /// the event queue — instead of a closure, so the steady-state message
  /// path performs zero heap allocations (see DESIGN.md §8).
  void on_message_event(MessageEvent&& ev) override;
  MessageEvent make_event(Message&& m, MessageEvent::Kind kind,
                          std::size_t hop = 0) {
    return MessageEvent{this, std::move(m), kind,
                        static_cast<std::uint32_t>(hop)};
  }

  void hop_arrival(Message&& m, std::size_t hop);
  void deliver(Message&& m, Time arrival);
  void dispatch(Message&& m);

  /// Memo of the last (bytes -> cost) computation for a link's serializer /
  /// the CPU per-byte charge. Message sizes repeat heavily (fixed-size RPCs,
  /// same-batch broadcasts), and FP division is the single most expensive
  /// instruction on the hop path. Keyed on the exact byte count, so a hit
  /// returns the exact llround result the cold path would produce —
  /// bit-identical simulation, ~2x fewer FP ops per delivery.
  struct CostMemo {
    std::size_t bytes = static_cast<std::size_t>(-1);
    Time cost = 0;
  };

  /// Per-shard mutable scratch (one cache line each, plus a final slot for
  /// control/serial contexts): counters are totals-by-sum, and the memo is
  /// a pure cache whose placement cannot affect computed values — so the
  /// split changes nothing observable while letting shard workers write
  /// without contention. Every other mutable array is owner-partitioned by
  /// construction: link state is only touched by the shard owning the
  /// link, node CPU state by the shard owning the node, and up_/severed_
  /// are written solely at control barriers (workers parked).
  struct alignas(64) ShardSlot {
    NetworkStats stats;
    CostMemo cpu_byte_memo;
  };

  ShardSlot& slot() {
    return slots_[sim_.exec_shard(static_cast<std::uint32_t>(slots_.size() - 1))];
  }

  /// Gray fault state. The maps are structurally mutated only at control
  /// barriers (fault events); between barriers, workers only read them —
  /// except a reorder entry's RNG, whose single writer is the pair's
  /// source-node lane (owned by exactly one shard).
  struct FlapState {
    Time origin = 0;
    Time period = 0;
  };
  struct ReorderState {
    Time max_jitter = 0;
    Rng rng{0};
  };

  /// A flapped pair is dark during the first half of every period.
  bool flap_down(std::uint64_t key, Time now) const {
    auto it = flapping_.find(key);
    if (it == flapping_.end()) return false;
    const FlapState& f = it->second;
    return (now - f.origin) % f.period < f.period / 2;
  }

  /// Compute-cost scaling for degraded nodes. factor == 1.0 returns `cost`
  /// unchanged (no FP round trip), so runs without CPU faults are
  /// bit-identical to builds that predate the gray palette.
  Time scaled_cpu(NodeId n, Time cost) const {
    const double f = cpu_factor_[n];
    if (f == 1.0) return cost;
    return static_cast<Time>(std::llround(static_cast<double>(cost) * f));
  }

  Simulator& sim_;
  Topology topo_;
  CpuModel cpu_;
  std::vector<Process*> procs_;
  std::vector<bool> up_;
  std::vector<Time> link_free_;
  std::vector<Time> cpu_free_;
  std::vector<std::uint64_t> link_bytes_;
  std::vector<Time> cpu_backlog_;
  std::vector<Time> link_backlog_;
  std::unordered_set<std::uint64_t> severed_;
  std::vector<double> cpu_factor_;  ///< per node; 1.0 = full speed
  std::unordered_map<std::uint64_t, FlapState> flapping_;
  std::unordered_map<std::uint64_t, Time> dup_echo_;
  std::unordered_map<std::uint64_t, ReorderState> reorder_;
  std::vector<CostMemo> link_memo_;  ///< per link: last serialize time
  std::vector<ShardSlot> slots_;     ///< [num_shards] + control slot
  TraceFn trace_;

  Time link_serialize(LinkId l, std::size_t bytes) {
    CostMemo& memo = link_memo_[l];
    if (memo.bytes != bytes) {
      memo.bytes = bytes;
      memo.cost = static_cast<Time>(
          std::llround(static_cast<double>(bytes) / topo_.link(l).bytes_per_ns));
    }
    return memo.cost;
  }

  Time cpu_byte_cost(std::size_t bytes) {
    CostMemo& memo = slot().cpu_byte_memo;
    if (memo.bytes != bytes) {
      memo.bytes = bytes;
      memo.cost = static_cast<Time>(
          std::llround(static_cast<double>(bytes) * cpu_.ns_per_byte));
    }
    return memo.cost;
  }
};

/// Clock facet of the runtime seam: the subset of Simulator the protocols
/// use (now/cancel/after), duck-typed so code written against the simulator
/// — `sim().now()`, `sim_.after(...)` in the consensus engines — runs
/// unchanged on the threaded backend. A cheap two-pointer value; the
/// simulated branch (sim_ != nullptr) inlines to the direct Simulator call,
/// keeping the per-message hot path free of virtual dispatch so PR 4's
/// numbers and the golden digests are untouched.
class ClockHandle {
 public:
  /// Direct handle onto a Simulator (test harnesses, simulator-only tools).
  ClockHandle(Simulator& s) : sim_(&s), rt_(nullptr) {}

  Time now() const { return sim_ ? sim_->now() : rt_->now(); }
  void cancel(EventId id) const {
    if (sim_ != nullptr)
      sim_->cancel(id);
    else
      rt_->cancel(id);
  }
  EventId after(Time delay, InlineFn fn) const {
    return sim_ != nullptr ? sim_->after(delay, std::move(fn))
                           : rt_->arm(delay, std::move(fn));
  }
  std::uint64_t seed() const { return sim_ ? sim_->seed() : rt_->seed(); }

 private:
  friend class Process;
  ClockHandle(Simulator* s, runtime::Runtime* r) : sim_(s), rt_(r) {}
  Simulator* sim_;
  runtime::Runtime* rt_;
};

/// Network facet of the runtime seam (busy/is_up/send); see ClockHandle.
class NetHandle {
 public:
  /// Direct handle onto a Network (test harnesses, simulator-only tools).
  NetHandle(Network& n) : net_(&n), rt_(nullptr) {}

  void busy(NodeId n, Time cost) const {
    if (net_ != nullptr)
      net_->busy(n, cost);
    else
      rt_->busy(n, cost);
  }
  bool is_up(NodeId n) const { return net_ ? net_->is_up(n) : rt_->is_up(n); }
  void send(Message m) const {
    if (net_ != nullptr)
      net_->send(std::move(m));
    else
      rt_->send(std::move(m));
  }

 private:
  friend class Process;
  NetHandle(Network* n, runtime::Runtime* r) : net_(n), rt_(r) {}
  Network* net_;
  runtime::Runtime* rt_;
};

/// Base class for all protocol actors (consensus nodes, clients, switches'
/// control planes...). A Process is attached to exactly one NodeId.
///
/// Runtime seam: a Process is attached either to a Network (simulated
/// backend — sim_/net_ set, rt_ null) or to a runtime::ThreadedRuntime
/// (rt_ set, sim_/net_ null). sim()/net() return the thin value handles
/// above, which branch on that pointer — the same protocol code
/// transparently targets the threaded backend's wall clock, timer queues
/// and mailboxes.
class Process {
 public:
  virtual ~Process() = default;

  NodeId node_id() const { return id_; }

  /// Invoked once when the simulation starts (after all attachments).
  virtual void on_start() {}

  /// Invoked for every delivered message.
  virtual void on_message(const Message& m) = 0;

 protected:
  ClockHandle sim() const { return ClockHandle(sim_, rt_); }
  NetHandle net() const { return NetHandle(net_, rt_); }

  /// Per-process deterministic RNG, seeded at attach() from the trial seed
  /// and the node id. Protocol code must draw from THIS stream, never from
  /// Simulator::rng(): a per-node stream's draw order depends only on the
  /// node's own event history, so it is identical under serial and sharded
  /// execution — a shared stream's would depend on the global interleaving.
  Rng& rng() { return rng_; }

  /// Sends a typed payload to `dst`, charging `wire_bytes` on the wire.
  /// Any registered wire-message type converts to Payload at this boundary.
  void send(NodeId dst, std::size_t wire_bytes, Payload payload) {
    Message m(id_, dst, wire_bytes, std::move(payload));
    if (net_ != nullptr)
      net_->send(std::move(m));
    else
      rt_->send(std::move(m));
  }

  EventId after(Time delay, InlineFn fn) {
    return sim().after(delay, std::move(fn));
  }

 private:
  friend class Network;
  friend class canopus::runtime::ThreadedRuntime;
  Simulator* sim_ = nullptr;
  Network* net_ = nullptr;
  runtime::Runtime* rt_ = nullptr;
  NodeId id_ = kInvalidNode;
  Rng rng_{0};
};

}  // namespace canopus::simnet
