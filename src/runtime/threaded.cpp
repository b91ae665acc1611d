#include "runtime/threaded.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace canopus::runtime {

namespace {

constexpr std::size_t kRingSlots = 256;   // per directed-pair mailbox (pow2)
constexpr std::size_t kPostSlots = 1024;  // Host::post injection ring (pow2)
constexpr int kSpinRounds = 64;           // empty polls before yielding
constexpr int kYieldRounds = 256;         // yields before parking in a sleep
constexpr Time kIdleSleep = 50'000;       // park time (ns) when fully idle

/// Which node's execution context this thread is, if any. send/arm/cancel
/// route through it: a message's source ring and a timer's queue are both
/// "the calling node's", exactly as the simulator's exec context works.
struct ExecCtx {
  ThreadedRuntime* rt = nullptr;
  NodeId node = kInvalidNode;
};
thread_local ExecCtx t_ctx;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

/// Everything one node thread owns, padded to its own cache line so
/// neighbouring nodes' counters never false-share.
struct alignas(64) ThreadedRuntime::NodeCell {
  NodeCell() : posts(kPostSlots) {
    overflow.reserve(4 * kRingSlots);
  }

  simnet::Process* proc = nullptr;
  std::thread thr;
  /// in[src]: the mailbox peer `src` pushes into; allocated at start() for
  /// attached senders only.
  std::vector<std::unique_ptr<simnet::SpscRing<simnet::Message>>> in;
  simnet::SpscRing<simnet::InlineFn> posts;  ///< driver injection lane
  /// This node's timers, owner-threaded: only the node thread arms,
  /// cancels and fires them.
  simnet::EventQueue timers;
  /// Inbound messages stashed while this node waits out a full outbound
  /// ring (breaks producer cycles; see header). FIFO via head cursor.
  std::vector<simnet::Message> overflow;
  std::size_t overflow_head = 0;
  std::size_t rr = 0;  ///< round-robin cursor over inbound rings
  std::atomic<bool> up{true};
  /// Gray fault plane: clock-skew transform applied at arm() (see
  /// Host::set_clock_skew). Driver writes, node thread reads.
  std::atomic<double> skew_rate{1.0};
  std::atomic<Time> skew_offset{0};

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> timers_fired{0};
  std::atomic<std::uint64_t> posts_run{0};
  std::atomic<std::uint64_t> stalls{0};
};

ThreadedRuntime::ThreadedRuntime(std::size_t num_nodes, std::uint64_t seed)
    : seed_(seed),
      sev_(num_nodes * num_nodes),
      epoch_(std::chrono::steady_clock::now()) {
  cells_.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i)
    cells_.push_back(std::make_unique<NodeCell>());
}

ThreadedRuntime::~ThreadedRuntime() { stop(); }

void ThreadedRuntime::attach(NodeId id, simnet::Process& proc) {
  assert(!started_ && "attach all processes before start()");
  assert(id < cells_.size());
  NodeCell& c = *cells_[id];
  assert(c.proc == nullptr && "node already attached");
  c.proc = &proc;
  proc.rt_ = this;
  proc.id_ = id;
  // Same stream derivation as Network::attach: a function of the trial
  // seed and the node id only.
  proc.rng_ = Rng(derive_seed(derive_seed(seed_, 0x90de5eedULL), id));
}

void ThreadedRuntime::start() {
  assert(!started_);
  started_ = true;
  // Mailboxes exist only for (attached sender, attached receiver) pairs;
  // allocated up front so node threads never allocate rings.
  for (auto& cell : cells_) {
    if (cell->proc == nullptr) continue;
    cell->in.resize(cells_.size());
    for (std::size_t s = 0; s < cells_.size(); ++s)
      if (cells_[s]->proc != nullptr)
        cell->in[s] =
            std::make_unique<simnet::SpscRing<simnet::Message>>(kRingSlots);
  }
  for (std::size_t i = 0; i < cells_.size(); ++i)
    if (cells_[i]->proc != nullptr)
      cells_[i]->thr = std::thread(
          [this, i] { node_main(static_cast<NodeId>(i)); });
}

void ThreadedRuntime::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  quit_.store(true, std::memory_order_release);
  for (auto& cell : cells_)
    if (cell->thr.joinable()) cell->thr.join();
}

void ThreadedRuntime::crash(NodeId n) {
  cells_[n]->up.store(false, std::memory_order_release);
}

void ThreadedRuntime::recover(NodeId n) {
  cells_[n]->up.store(true, std::memory_order_release);
}

bool ThreadedRuntime::is_up(NodeId n) const {
  return n < cells_.size() && cells_[n]->up.load(std::memory_order_acquire);
}

void ThreadedRuntime::sever(NodeId a, NodeId b) {
  auto& flag = sev_[a * cells_.size() + b];
  if (flag.exchange(1, std::memory_order_release) == 0)
    severed_count_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedRuntime::heal(NodeId a, NodeId b) {
  auto& flag = sev_[a * cells_.size() + b];
  if (flag.exchange(0, std::memory_order_release) == 1)
    severed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void ThreadedRuntime::set_clock_skew(NodeId n, double rate, Time offset) {
  assert(n < cells_.size() && rate > 0);
  cells_[n]->skew_rate.store(rate, std::memory_order_relaxed);
  cells_[n]->skew_offset.store(offset, std::memory_order_relaxed);
}

void ThreadedRuntime::post(NodeId n, simnet::InlineFn fn) {
  assert(n < cells_.size() && cells_[n]->proc != nullptr);
  NodeCell& c = *cells_[n];
  // Single driver thread is the producer; a full ring means the node is
  // momentarily behind — wait, it drains posts every loop iteration.
  while (!c.posts.try_push(std::move(fn))) {
    if (quit_.load(std::memory_order_acquire)) return;
    std::this_thread::yield();
  }
}

Time ThreadedRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

simnet::EventId ThreadedRuntime::arm(Time delay, simnet::InlineFn fn) {
  assert(t_ctx.rt == this && "arm() outside a node execution context");
  NodeCell& me = *cells_[t_ctx.node];
  if (delay < 0) delay = 0;
  // Same clock-skew transform as Simulator::after — the gray fault plane's
  // drifted timers behave identically on both backends.
  const double r = me.skew_rate.load(std::memory_order_relaxed);
  if (r != 1.0)
    delay = static_cast<Time>(std::llround(static_cast<double>(delay) / r));
  delay += me.skew_offset.load(std::memory_order_relaxed);
  if (delay < 0) delay = 0;
  return me.timers.schedule(now() + delay, std::move(fn));
}

void ThreadedRuntime::cancel(simnet::EventId id) {
  if (id == simnet::kInvalidEvent) return;
  if (t_ctx.rt != this) {
    // Teardown: protocol destructors cancel leftover timers from the
    // driver thread after stop() joined every node — the queues are dead,
    // so there is nothing to cancel.
    assert(stopped_ && "cancel() outside a node execution context");
    return;
  }
  cells_[t_ctx.node]->timers.cancel(id);
}

void ThreadedRuntime::send(simnet::Message m) {
  assert(t_ctx.rt == this && "send() outside a node execution context");
  const NodeId src = m.src();
  const NodeId dst = m.dst();
  NodeCell& me = *cells_[src];
  if (!me.up.load(std::memory_order_relaxed)) return;  // crashed sender
  if (dst >= cells_.size() || cells_[dst]->proc == nullptr ||
      severed(src, dst) ||
      !cells_[dst]->up.load(std::memory_order_relaxed)) {
    me.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  simnet::SpscRing<simnet::Message>& ring = *cells_[dst]->in[src];
  if (ring.full()) {
    // Backpressure: wait for the receiver, but keep our own inbound moving
    // (into the overflow stash — no handler re-entrancy) so a cycle of
    // full rings cannot deadlock.
    me.stalls.fetch_add(1, std::memory_order_relaxed);
    while (ring.full()) {
      if (quit_.load(std::memory_order_acquire)) return;
      if (drain_inbound(me, /*to_overflow=*/true) == 0) cpu_relax();
    }
  }
  ring.push(std::move(m));
  me.sent.fetch_add(1, std::memory_order_relaxed);
}

void ThreadedRuntime::deliver(NodeCell& me, simnet::Message&& m) {
  if (!me.up.load(std::memory_order_relaxed)) {
    me.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  me.delivered.fetch_add(1, std::memory_order_relaxed);
  me.proc->on_message(m);
}

std::size_t ThreadedRuntime::drain_inbound(NodeCell& me, bool to_overflow) {
  // Fairness: take at most a small batch per ring per pass, resuming at a
  // rotating cursor so one chatty peer cannot starve the rest.
  constexpr std::size_t kBatch = 32;
  const std::size_t n = me.in.size();
  std::size_t done = 0;
  simnet::Message m;
  for (std::size_t k = 0; k < n; ++k) {
    auto& ring = me.in[(me.rr + k) % n];
    if (!ring) continue;
    for (std::size_t b = 0; b < kBatch && ring->try_pop(m); ++b) {
      ++done;
      if (to_overflow)
        me.overflow.push_back(std::move(m));
      else
        deliver(me, std::move(m));
    }
  }
  me.rr = (me.rr + 1) % std::max<std::size_t>(n, 1);
  return done;
}

std::size_t ThreadedRuntime::run_overflow(NodeCell& me) {
  std::size_t done = 0;
  // Index loop: deliver() may re-enter drain_inbound(to_overflow=true) via
  // a blocked send and grow the vector under us.
  while (me.overflow_head < me.overflow.size()) {
    simnet::Message m = std::move(me.overflow[me.overflow_head++]);
    deliver(me, std::move(m));
    ++done;
  }
  if (me.overflow_head == me.overflow.size() && me.overflow_head != 0) {
    me.overflow.clear();  // keeps capacity: no further allocation
    me.overflow_head = 0;
  }
  return done;
}

std::size_t ThreadedRuntime::run_posts(NodeCell& me) {
  std::size_t done = 0;
  simnet::InlineFn fn;
  // Injected closures run even on a crashed node: they are the driver's
  // control plane (crash/recover handlers themselves arrive this way).
  while (me.posts.try_pop(fn)) {
    fn();
    ++done;
  }
  me.posts_run.fetch_add(done, std::memory_order_relaxed);
  return done;
}

void ThreadedRuntime::node_main(NodeId id) {
  t_ctx = {this, id};
  NodeCell& me = *cells_[id];
  me.proc->on_start();
  int idle = 0;
  while (!quit_.load(std::memory_order_acquire)) {
    std::size_t work = 0;
    work += run_posts(me);
    work += run_overflow(me);
    work += drain_inbound(me, /*to_overflow=*/false);
    // Fire what is due as of one clock reading: a timer a closure arms
    // with zero delay waits for the next pass, behind the mailboxes.
    const Time t = now();
    Time at = 0;  // fire_next's out-parameter; the node's clock is now()
    std::size_t fired = 0;
    while (!me.timers.empty() && me.timers.next_time() <= t) {
      me.timers.fire_next(at);
      ++fired;
    }
    me.timers_fired.fetch_add(fired, std::memory_order_relaxed);
    work += fired;
    if (work != 0) {
      idle = 0;
    } else if (++idle <= kSpinRounds) {
      cpu_relax();
    } else if (idle <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
    } else {
      // Park, but never past the next timer deadline.
      Time ns = kIdleSleep;
      if (!me.timers.empty())
        ns = std::clamp<Time>(me.timers.next_time() - now(), 0, ns);
      if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    }
  }
  t_ctx = {};
}

ThreadedRuntime::Stats ThreadedRuntime::stats(NodeId n) const {
  const NodeCell& c = *cells_[n];
  Stats s;
  s.sent = c.sent.load(std::memory_order_relaxed);
  s.delivered = c.delivered.load(std::memory_order_relaxed);
  s.dropped = c.dropped.load(std::memory_order_relaxed);
  s.timers = c.timers_fired.load(std::memory_order_relaxed);
  s.posts = c.posts_run.load(std::memory_order_relaxed);
  s.stalls = c.stalls.load(std::memory_order_relaxed);
  return s;
}

ThreadedRuntime::Stats ThreadedRuntime::total_stats() const {
  Stats t;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Stats s = stats(static_cast<NodeId>(i));
    t.sent += s.sent;
    t.delivered += s.delivered;
    t.dropped += s.dropped;
    t.timers += s.timers;
    t.posts += s.posts;
    t.stalls += s.stalls;
  }
  return t;
}

}  // namespace canopus::runtime
