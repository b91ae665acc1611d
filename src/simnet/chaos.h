// ChaosScheduleGenerator: seeded fault storms as plain FaultSchedules.
//
// A storm is a randomized sequence of fault/repair pairs drawn from a
// seeded RNG, parameterized by an intensity knob (event rate, blast
// radius, fault duration). The generator emits an ordinary
// simnet::FaultSchedule, so a storm replays bit-identically from its seed
// through the exact same arming path the hand-written scenarios use
// (workload/fault_scenario.h) — which is what makes a chaos sweep
// reproducible and a violating seed bisectable.
//
// Two fault families share the draw loop: the fail-stop kinds
// (crash/recover, sever/heal) and the gray palette (degraded CPU, flapping
// links, duplication, reordering, clock skew — DESIGN.md §13). Gray
// weights default to 0, so configs written before the palette existed draw
// byte-identical storms.
//
// Structural guarantees (property-tested in tests/simnet/chaos_test.cpp):
//  * every event lies inside [start, end];
//  * every fault is paired with exactly one repair for its victim (node or
//    directed pair), and the repair comes no earlier than `min_heal` after
//    the fault (faults have a minimum duration);
//  * replaying the schedule never exceeds any kind's blast-radius cap
//    (max_down crashed nodes, max_severed severed pairs, kMaxSlow degraded
//    nodes, kMaxFlapping / kMaxDup / kMaxReorder pairs, kMaxSkewed nodes)
//    — storms degrade the cluster, they never erase it;
//  * by `end` every fault is healed, so a post-storm phase exists in which
//    repair traffic can converge and the audit plane can judge the run.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "simnet/fault_schedule.h"

namespace canopus::simnet {

/// Per-kind blast radius for the gray kinds: the most degraded nodes,
/// flapping, duplicating and reordering directed pairs, and skewed nodes a
/// storm holds at once.
inline constexpr int kMaxSlow = 1;
inline constexpr int kMaxFlapping = 2;
inline constexpr int kMaxDup = 2;
inline constexpr int kMaxReorder = 2;
inline constexpr int kMaxSkewed = 1;

/// Intensity knobs of one storm. Rates are mean values of exponential
/// draws; all times are absolute simulation times.
struct ChaosConfig {
  Time start = 0;  ///< first fault no earlier than this
  Time end = 0;    ///< every fault healed/recovered by this time

  /// Mean fault-injection rate (events of any enabled kind per second).
  double events_per_s = 10.0;

  /// Blast radius: cap on *concurrently* crashed nodes / severed directed
  /// pairs. An injection drawn while its kind is at the cap is dropped
  /// (the storm keeps its rate for the other kinds).
  int max_down = 1;
  int max_severed = 2;

  /// Minimum fault duration: every fault repairs no earlier than this
  /// after injection. Must be > 0 and < (end - start).
  Time min_heal = 100 * kMillisecond;
  /// Mean of the exponential extra duration added on top of `min_heal`
  /// (clipped so repair never lands after `end`).
  Time mean_extra = 150 * kMillisecond;

  /// Relative likelihood of each fault kind. Zero disables the kind
  /// entirely (e.g. sever-only storms for partition soak tests).
  double crash_weight = 1.0;
  double sever_weight = 1.0;

  // --- gray-failure palette (all weights default 0 == disabled) --------
  double cpu_weight = 0;      ///< degraded-CPU node (slow, not dead)
  double flap_weight = 0;     ///< flapping directed link
  double dup_weight = 0;      ///< message duplication on a directed pair
  double reorder_weight = 0;  ///< bounded delivery reordering on a pair
  double skew_weight = 0;     ///< clock skew on a node's timer arming

  /// Gray fault parameters (fixed per storm; the *victims and windows* are
  /// random, the severity is a config knob so sweeps stay interpretable).
  double cpu_factor = 4.0;  ///< compute-cost multiplier while degraded
  Time flap_period = 40 * kMillisecond;    ///< full down+up oscillation
  Time dup_echo = 2 * kMillisecond;        ///< duplicate trails by this
  Time reorder_jitter = 5 * kMillisecond;  ///< per-message delay in [0, j]
  double skew_rate_lo = 0.8;   ///< clock rate drawn uniformly in [lo, hi]
  double skew_rate_hi = 1.25;

  /// Eager validation: throws std::invalid_argument with a descriptive
  /// message on inconsistent knobs (non-positive min_heal, min_heal not
  /// inside the window, negative weights/rates, degenerate gray
  /// parameters). generate() calls it, so a bad config fails loudly at the
  /// first draw instead of producing a silently-wrong storm.
  void validate() const;
};

class ChaosScheduleGenerator {
 public:
  explicit ChaosScheduleGenerator(std::uint64_t seed) : rng_(seed) {}

  /// Draws one storm over `nodes` (the consensus servers; pair faults hit
  /// directed pairs of distinct entries). Deterministic: a freshly seeded
  /// generator given equal (cfg, nodes) produces an identical schedule.
  /// The generator's RNG advances across calls, so repeated generate()
  /// calls on ONE instance draw different storms — re-seed (or copy the
  /// generator) to replay a storm. Events are emitted in time order with
  /// repairs sorted before faults at equal timestamps, so a replay that
  /// walks the event list observes the blast radius the generator
  /// enforced.
  FaultSchedule generate(const ChaosConfig& cfg,
                         const std::vector<NodeId>& nodes);

 private:
  Rng rng_;
};

}  // namespace canopus::simnet
