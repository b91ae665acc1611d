// FaultSchedule: deterministic, simulation-time-scheduled fault injection.
//
// A schedule is an ordered list of fault events, each pinned to an absolute
// simulation time. Arming the schedule turns every event into one simulator
// event; because the simulator is deterministic, two runs with the same
// schedule produce bit-identical fault timings — which is what lets the
// failure benches compare systems under *identical* fault histories, and
// lets parallel trial execution stay bit-identical to serial.
//
// Two fault classes (DESIGN.md §9, §13):
//  * fail-stop: crash/recover a node, sever/heal a directed pair;
//  * gray failures: degraded CPU (slow, not dead), flapping links, message
//    duplication, bounded reordering, and per-node clock skew — the
//    failures that page people without tripping a liveness detector.
// kFaultFamilies below is the one statement of the taxonomy: which kind
// repairs which, and which kinds hit a node versus a directed pair.
//
// The schedule only knows the Network primitives (network.h). Protocols
// that need node-level crash handling on top (Canopus silencing its
// broadcast groups, a Raft member stopping its timers) hook the per-event
// `apply` callback the workload layer supplies — see
// workload/fault_scenario.h.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <string_view>
#include <vector>

#include "simnet/network.h"

namespace canopus::simnet {

struct FaultEvent {
  enum class Kind {
    kCrash,
    kRecover,
    kSever,
    kHeal,
    // Gray-failure palette. Each fault is a [start, stop] window; the
    // parameters ride in `x`/`d` so one event is self-contained and a
    // schedule replays without external state.
    kCpuSlow,      ///< node a: compute costs multiplied by x until kCpuNormal
    kCpuNormal,    ///< node a: compute cost multiplier back to 1
    kFlapStart,    ///< pair a->b: link oscillates down/up with full period d
    kFlapStop,     ///< pair a->b: flapping ends (link stays up)
    kDupStart,     ///< pair a->b: every message also delivered again +d later
    kDupStop,      ///< pair a->b: duplication ends
    kReorderStart, ///< pair a->b: per-message seeded delivery jitter in [0,d]
    kReorderStop,  ///< pair a->b: reordering ends
    kSkewSet,      ///< node a: timer clock runs at rate x with constant lag d
    kSkewClear,    ///< node a: clock back to rate 1, lag 0
  };
  Time at = 0;
  Kind kind = Kind::kCrash;
  NodeId a = kInvalidNode;  ///< the node (node faults) or the source (pair faults)
  NodeId b = kInvalidNode;  ///< the destination (pair faults only)
  double x = 0;  ///< CPU factor (kCpuSlow) or clock rate (kSkewSet)
  Time d = 0;    ///< flap period / dup echo delay / reorder jitter bound /
                 ///< skew offset

  bool operator==(const FaultEvent&) const = default;
};

/// One fault family: the kind that injects the fault, the kind that
/// repairs it, and what it targets. Every fault the plane knows pairs with
/// exactly one repair of its own family on the same victim.
struct FaultFamily {
  FaultEvent::Kind fault;
  FaultEvent::Kind repair;
  bool pair;  ///< targets the directed pair a -> b; otherwise node a
  const char* fault_name;   ///< fault_kind_name(fault): the canopus-storm-v1
  const char* repair_name;  ///< spelling of each kind
};

/// The fault taxonomy, one row per family. The row order is the chaos
/// generator's fixed draw order (simnet/chaos.cpp), so a family added later
/// goes at the end and leaves the draws of storms that disable it unchanged.
inline constexpr FaultFamily kFaultFamilies[] = {
    {FaultEvent::Kind::kCrash, FaultEvent::Kind::kRecover, false, "crash",
     "recover"},
    {FaultEvent::Kind::kSever, FaultEvent::Kind::kHeal, true, "sever", "heal"},
    {FaultEvent::Kind::kCpuSlow, FaultEvent::Kind::kCpuNormal, false,
     "cpu_slow", "cpu_normal"},
    {FaultEvent::Kind::kFlapStart, FaultEvent::Kind::kFlapStop, true,
     "flap_start", "flap_stop"},
    {FaultEvent::Kind::kDupStart, FaultEvent::Kind::kDupStop, true,
     "dup_start", "dup_stop"},
    {FaultEvent::Kind::kReorderStart, FaultEvent::Kind::kReorderStop, true,
     "reorder_start", "reorder_stop"},
    {FaultEvent::Kind::kSkewSet, FaultEvent::Kind::kSkewClear, false,
     "skew_set", "skew_clear"},
};
inline constexpr std::size_t kNumFaultFamilies = std::size(kFaultFamilies);

/// The kFaultFamilies row `k` belongs to, as its fault or its repair.
constexpr std::size_t fault_family(FaultEvent::Kind k) {
  std::size_t f = 0;
  while (f + 1 < kNumFaultFamilies && kFaultFamilies[f].fault != k &&
         kFaultFamilies[f].repair != k)
    ++f;
  return f;
}

/// True when `k` repairs a fault; false when it injects one.
constexpr bool is_repair(FaultEvent::Kind k) {
  return kFaultFamilies[fault_family(k)].repair == k;
}

const char* fault_kind_name(FaultEvent::Kind k);
/// Inverts fault_kind_name. False when `name` is no fault kind.
bool fault_kind_parse(std::string_view name, FaultEvent::Kind* out);

class FaultSchedule {
 public:
  FaultSchedule& crash_at(Time t, NodeId n) {
    events_.push_back({t, FaultEvent::Kind::kCrash, n, kInvalidNode, 0, 0});
    return *this;
  }
  FaultSchedule& recover_at(Time t, NodeId n) {
    events_.push_back({t, FaultEvent::Kind::kRecover, n, kInvalidNode, 0, 0});
    return *this;
  }
  /// Severs the directed pair a -> b (messages a -> b are dropped;
  /// b -> a still flows — this is what makes partitions *asymmetric*).
  /// Idempotent within one schedule: severing a pair that a prior event
  /// already left severed is dropped, so replays that count sever/heal
  /// events (the generator's max_severed accounting, the minimizer's
  /// pairing) never double-book a pair. Judged in builder-call order.
  FaultSchedule& sever_at(Time t, NodeId a, NodeId b) {
    if (sever_balance(a, b) > 0) return *this;
    events_.push_back({t, FaultEvent::Kind::kSever, a, b, 0, 0});
    return *this;
  }
  /// Heals a -> b. Idempotent like sever_at: a heal of a pair the schedule
  /// does not currently leave severed is dropped.
  FaultSchedule& heal_at(Time t, NodeId a, NodeId b) {
    if (sever_balance(a, b) <= 0) return *this;
    events_.push_back({t, FaultEvent::Kind::kHeal, a, b, 0, 0});
    return *this;
  }
  /// Symmetric partition helpers: sever/heal both directions.
  FaultSchedule& partition_at(Time t, NodeId a, NodeId b) {
    return sever_at(t, a, b).sever_at(t, b, a);
  }
  FaultSchedule& join_at(Time t, NodeId a, NodeId b) {
    return heal_at(t, a, b).heal_at(t, b, a);
  }

  // --- gray-failure palette (DESIGN.md §13) ----------------------------
  FaultSchedule& cpu_slow_at(Time t, NodeId n, double factor) {
    events_.push_back(
        {t, FaultEvent::Kind::kCpuSlow, n, kInvalidNode, factor, 0});
    return *this;
  }
  FaultSchedule& cpu_normal_at(Time t, NodeId n) {
    events_.push_back({t, FaultEvent::Kind::kCpuNormal, n, kInvalidNode, 0, 0});
    return *this;
  }
  FaultSchedule& flap_at(Time t, NodeId a, NodeId b, Time period) {
    events_.push_back({t, FaultEvent::Kind::kFlapStart, a, b, 0, period});
    return *this;
  }
  FaultSchedule& flap_stop_at(Time t, NodeId a, NodeId b) {
    events_.push_back({t, FaultEvent::Kind::kFlapStop, a, b, 0, 0});
    return *this;
  }
  FaultSchedule& dup_at(Time t, NodeId a, NodeId b, Time echo_delay) {
    events_.push_back({t, FaultEvent::Kind::kDupStart, a, b, 0, echo_delay});
    return *this;
  }
  FaultSchedule& dup_stop_at(Time t, NodeId a, NodeId b) {
    events_.push_back({t, FaultEvent::Kind::kDupStop, a, b, 0, 0});
    return *this;
  }
  FaultSchedule& reorder_at(Time t, NodeId a, NodeId b, Time max_jitter) {
    events_.push_back({t, FaultEvent::Kind::kReorderStart, a, b, 0, max_jitter});
    return *this;
  }
  FaultSchedule& reorder_stop_at(Time t, NodeId a, NodeId b) {
    events_.push_back({t, FaultEvent::Kind::kReorderStop, a, b, 0, 0});
    return *this;
  }
  FaultSchedule& skew_at(Time t, NodeId n, double rate, Time offset) {
    events_.push_back({t, FaultEvent::Kind::kSkewSet, n, kInvalidNode, rate,
                       offset});
    return *this;
  }
  FaultSchedule& skew_clear_at(Time t, NodeId n) {
    events_.push_back({t, FaultEvent::Kind::kSkewClear, n, kInvalidNode, 0, 0});
    return *this;
  }

  /// Raw append, bypassing the builders' bookkeeping. For callers that
  /// enforce their own structure: the chaos generator's sorted rebuild and
  /// the minimizer's subset replays (storm_minimizer.h).
  FaultSchedule& add(const FaultEvent& ev) {
    events_.push_back(ev);
    return *this;
  }

  /// This schedule with every node id n replaced by to(n), both ends of a
  /// pair fault included. With an injective `to` the builders' sever/heal
  /// dedup decides exactly as it would have on the relabelled ids, which is
  /// how a scenario written over server indices lands on a fleet's NodeIds
  /// (workload/fault_scenario.h).
  template <typename F>
  FaultSchedule relabeled(F&& to) const {
    FaultSchedule out = *this;
    for (FaultEvent& ev : out.events_) {
      ev.a = to(ev.a);
      if (ev.b != kInvalidNode) ev.b = to(ev.b);
    }
    return out;
  }

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

  /// Appends all of `other`'s events and re-sorts by time, keeping each
  /// source schedule's relative order at equal timestamps (stable sort, so
  /// a generator's repair-before-fault tie discipline survives the merge).
  /// This is how per-group chaos storms compose into one fleet schedule —
  /// see chaos_storm in workload/trial.h.
  FaultSchedule& merge(const FaultSchedule& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
    std::stable_sort(
        events_.begin(), events_.end(),
        [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    return *this;
  }

  /// Applies one event directly to the network (no scheduling).
  static void apply(Network& net, const FaultEvent& ev);

  /// Schedules every event on the network's simulator. When `hook` is
  /// non-null it replaces the default Network application for that event —
  /// the caller is then responsible for calling FaultSchedule::apply (or an
  /// equivalent) itself. Events at equal times fire in insertion order
  /// (the simulator queue is FIFO for ties).
  using ApplyFn = std::function<void(Network&, const FaultEvent&)>;
  void arm(Network& net, ApplyFn hook = {}) const;

 private:
  /// Net sever count for the directed pair in builder-call order: > 0 means
  /// the schedule's own events leave the pair severed at this point.
  int sever_balance(NodeId a, NodeId b) const {
    int bal = 0;
    for (const FaultEvent& ev : events_) {
      if (ev.a != a || ev.b != b) continue;
      if (ev.kind == FaultEvent::Kind::kSever) ++bal;
      if (ev.kind == FaultEvent::Kind::kHeal) --bal;
    }
    return bal;
  }

  std::vector<FaultEvent> events_;
};

}  // namespace canopus::simnet
