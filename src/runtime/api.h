// The Runtime seam: the narrow surface a consensus Process and its driver
// need from "the world", factored so the same protocol code runs on either
// backend (DESIGN.md §12).
//
// Two facets, two audiences:
//
//  * runtime::Runtime — what a *node* needs from inside its execution
//    context: the clock, one-shot timers, message send, CPU charging,
//    liveness queries. The simulated backend satisfies this with
//    Simulator+Network (Process::sim()/net() dispatch inline, no virtual
//    call on the hot path); runtime::ThreadedRuntime implements it with
//    wall clocks, per-thread timer queues and lock-free SPSC mailboxes.
//
//  * runtime::Host — what a *driver* (deployments, fault scenarios,
//    benches) needs from outside: attach processes, crash/recover nodes,
//    sever links, and post closures into a node's execution context.
//    simnet::Network implements it for the simulated backend (post runs
//    inline — the caller IS the execution context between sim.run() calls);
//    ThreadedRuntime enqueues posts onto the node's injection mailbox.
//
// The seam is deliberately tiny: protocols only ever use now/cancel (clock),
// busy/is_up/send (network) and after (timers) — verified by the
// cross-runtime digest-equivalence test, which drives identical command
// scripts through both backends and diffs commit fingerprints.
#pragma once

#include "common/types.h"
#include "simnet/event_queue.h"  // EventId, InlineFn
#include "simnet/message.h"

namespace canopus::simnet {
class Process;
}  // namespace canopus::simnet

namespace canopus::runtime {

class ThreadedRuntime;

/// Node-facing facet. Every call must be made from a node execution
/// context (a message/timer handler, or a closure delivered via
/// Host::post); the threaded backend asserts this.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Current time in ns. Simulated time for the simulator backend,
  /// wall-clock ns since runtime construction for the threaded one.
  virtual Time now() const = 0;

  /// Arms a one-shot timer `delay` ns from now on the calling node.
  virtual simnet::EventId arm(Time delay, simnet::InlineFn fn) = 0;

  /// Cancels a timer armed by the calling node. Ignores kInvalidEvent and
  /// already-fired ids (generation-checked), like Simulator::cancel.
  virtual void cancel(simnet::EventId id) = 0;

  /// Sends a message from m.src() (the calling node) to m.dst().
  virtual void send(simnet::Message m) = 0;

  /// Charges protocol-level compute to a node's serial CPU. The simulated
  /// backend advances that node's cpu_free_; the threaded backend is a
  /// no-op — real threads burn real cycles.
  virtual void busy(NodeId n, Time cost) = 0;

  virtual bool is_up(NodeId n) const = 0;

  /// The backend's base seed; consensus engines derive their per-node RNG
  /// streams from it exactly as they do from Simulator::seed().
  virtual std::uint64_t seed() const = 0;
};

/// Driver-facing facet. All calls are made from outside node execution
/// contexts (the main/driver thread).
class Host {
 public:
  virtual ~Host() = default;

  /// Registers the process handling messages addressed to `id`, wires its
  /// clock/net handles and seeds its per-node RNG. Must precede start/run.
  virtual void attach(NodeId id, simnet::Process& proc) = 0;

  // Fault plane: crash-stop / restart a node, sever / heal a directed pair.
  virtual void crash(NodeId n) = 0;
  virtual void recover(NodeId n) = 0;
  virtual bool is_up(NodeId n) const = 0;
  virtual void sever(NodeId a, NodeId b) = 0;
  virtual void heal(NodeId a, NodeId b) = 0;

  /// Gray fault plane: skews node n's timer arming — a nominal delay
  /// becomes round(delay / rate) + offset, clamped to >= 0. rate > 1 is a
  /// fast clock (timers fire early), rate < 1 a slow one; rate 1 with
  /// offset 0 clears the skew. The simulated backend transforms
  /// Simulator::after, the threaded backend its timer arming — the same
  /// protocol code drifts identically on both (DESIGN.md §13).
  virtual void set_clock_skew(NodeId n, double rate, Time offset) = 0;

  /// Runs `fn` inside node n's execution context: inline for the simulated
  /// backend (the driver thread between run() slices is the context),
  /// enqueued onto the node's injection mailbox for the threaded backend.
  /// This is how ConsensusService::submit and crash/recover reach protocol
  /// state without data races under real threads.
  virtual void post(NodeId n, simnet::InlineFn fn) = 0;
};

}  // namespace canopus::runtime
