// ThreadedRuntime: the wall-clock backend of the Runtime seam
// (DESIGN.md §12).
//
// One OS thread per attached node. Each node owns a pre-allocated mailbox
// pool: one bounded lock-free SPSC ring per *sender* (so every directed
// peer pair has a dedicated ring — N^2 fan-in built from SPSC parts, no
// CAS anywhere), plus one injection ring the driver thread feeds through
// Host::post (submit, crash, recover closures). The node's drain loop
// round-robins its inbound rings, runs injected closures, and fires the
// due timers of its own simnet::EventQueue; `now()` is wall-clock ns since
// runtime construction, so the protocols' timeouts (ms-scale) behave as on
// a real deployment.
//
// Hot-path allocation discipline matches the simulator (PR 4): ring slots
// and the overflow stash are preallocated, timer slots are recycled by the
// EventQueue exactly as on the simulated path; Messages move
// through rings by value (Payload copies are refcount bumps); closures
// travel as InlineFn. bench_runtime's operator-new hook proves zero
// steady-state allocations per message.
//
// Backpressure without deadlock: a sender blocked on a full outbound ring
// keeps draining its *own* inbound rings into a preallocated overflow
// stash (messages only, no handler re-entrancy) while it waits — the same
// move the PDES kernel makes in its hand-off wait loop — so a cycle of
// mutually-full rings always drains.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "simnet/event_queue.h"
#include "simnet/network.h"  // Process (friend access to rt_/id_/rng_)
#include "simnet/spsc.h"

namespace canopus::runtime {

class ThreadedRuntime final : public Runtime, public Host {
 public:
  ThreadedRuntime(std::size_t num_nodes, std::uint64_t seed);
  ~ThreadedRuntime() override;

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  // --- Host (driver thread) -------------------------------------------
  void attach(NodeId id, simnet::Process& proc) override;
  void crash(NodeId n) override;
  void recover(NodeId n) override;
  void sever(NodeId a, NodeId b) override;
  void heal(NodeId a, NodeId b) override;
  /// Per-node clock skew applied at timer arming (atomic rate/offset; the
  /// node thread reads them with relaxed loads on every arm()).
  void set_clock_skew(NodeId n, double rate, Time offset) override;
  void post(NodeId n, simnet::InlineFn fn) override;
  bool is_up(NodeId n) const override;  // final overrider for both facets

  /// Spawns one thread per attached node and runs their on_start hooks.
  void start();
  /// Stops and joins every node thread. Idempotent. After it returns the
  /// driver may safely read protocol state (join = happens-before).
  void stop();
  bool running() const { return started_ && !stopped_; }

  // --- Runtime (node threads) -----------------------------------------
  Time now() const override;
  simnet::EventId arm(Time delay, simnet::InlineFn fn) override;
  void cancel(simnet::EventId id) override;
  void send(simnet::Message m) override;
  /// Real threads burn real cycles; modeled CPU charges are a no-op.
  void busy(NodeId, Time) override {}
  std::uint64_t seed() const override { return seed_; }

  // --- observability ---------------------------------------------------
  struct Stats {
    std::uint64_t sent = 0;       ///< messages pushed into peer mailboxes
    std::uint64_t delivered = 0;  ///< messages handed to on_message
    std::uint64_t dropped = 0;    ///< to crashed/severed/unattached nodes
    std::uint64_t timers = 0;     ///< timer closures fired
    std::uint64_t posts = 0;      ///< injected closures run
    std::uint64_t stalls = 0;     ///< full-ring backpressure waits
  };
  /// Safe to call live (relaxed counters; exact after stop()).
  Stats stats(NodeId n) const;
  Stats total_stats() const;

  std::size_t num_nodes() const { return cells_.size(); }

 private:
  struct NodeCell;

  void node_main(NodeId id);
  std::size_t drain_inbound(NodeCell& me, bool to_overflow);
  std::size_t run_overflow(NodeCell& me);
  std::size_t run_posts(NodeCell& me);
  void deliver(NodeCell& me, simnet::Message&& m);
  bool severed(NodeId a, NodeId b) const {
    return severed_count_.load(std::memory_order_relaxed) != 0 &&
           sev_[a * cells_.size() + b].load(std::memory_order_relaxed) != 0;
  }

  const std::uint64_t seed_;
  std::vector<std::unique_ptr<NodeCell>> cells_;
  std::vector<std::atomic<std::uint8_t>> sev_;  ///< directed-pair severs
  std::atomic<int> severed_count_{0};
  std::atomic<bool> go_{false};
  std::atomic<bool> quit_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace canopus::runtime
