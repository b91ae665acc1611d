// Chaos storms: the intensity axis and the seeded storm a grid point draws.
//
// A chaos trial (chaos_trial in workload/trial.h) is the one trial pipeline
// with a simnet::ChaosScheduleGenerator storm armed through the services
// and a HistoryAuditor wired into every commit and every client completion.
// Its result is a pure function of (TrialConfig, ChaosIntensity,
// FaultTiming, offered rate) — independent of threads or run order — so
// bench_chaos sweeps (system x seed x intensity) on the TrialPool and stays
// bit-identical to a serial run, and a violating grid point replays from
// its coordinates alone.
//
// Phases reuse the FaultTiming vocabulary of the scenario trials:
// before = [warmup, fault_at), storm = [fault_at, heal_at),
// after = [heal_at, end_at), then `drain` for repair traffic to converge
// before the auditor's final checks.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "simnet/chaos.h"
#include "workload/deployments.h"
#include "workload/fault_scenario.h"

namespace canopus::workload {

/// One point on the storm-intensity axis: a name (it salts the trial seed,
/// chaos_trial_seed) and the generator knobs of its storms. The storm
/// window (storm.start, storm.end) is left to the trial's FaultTiming
/// (chaos_storm in workload/trial.h).
struct ChaosIntensity {
  std::string name;
  simnet::ChaosConfig storm;
};

/// The standard intensity grid. The blast radius never exceeds a minority
/// of a 3-node group *at once*, but repeated crashes can darken more nodes
/// over a storm's lifetime for systems without a rejoin path (Canopus), so
/// high intensities are expected to cost availability — never safety.
inline std::vector<ChaosIntensity> standard_intensities() {
  return {
      {"low", {.events_per_s = 4.0, .max_down = 1, .max_severed = 1,
               .min_heal = 150 * kMillisecond,
               .mean_extra = 250 * kMillisecond}},
      {"medium", {.events_per_s = 10.0, .max_down = 2, .max_severed = 2,
                  .min_heal = 120 * kMillisecond,
                  .mean_extra = 200 * kMillisecond}},
      {"high", {.events_per_s = 25.0, .max_down = 2, .max_severed = 4,
                .min_heal = 100 * kMillisecond,
                .mean_extra = 150 * kMillisecond}},
  };
}

/// The gray-failure axis: one pure storm per gray kind (crash/sever off,
/// exactly one gray weight on), so a violation or a digest drift points at
/// a single fault primitive. Rates are moderate — gray faults overlap
/// (flap + skew on one node is legal), the per-kind caps bound each kind.
inline std::vector<ChaosIntensity> gray_intensities() {
  using simnet::ChaosConfig;
  const std::pair<const char*, double ChaosConfig::*> kinds[] = {
      {"gray-cpu", &ChaosConfig::cpu_weight},
      {"gray-flap", &ChaosConfig::flap_weight},
      {"gray-dup", &ChaosConfig::dup_weight},
      {"gray-reorder", &ChaosConfig::reorder_weight},
      {"gray-skew", &ChaosConfig::skew_weight},
  };
  std::vector<ChaosIntensity> out;
  for (const auto& [name, weight] : kinds) {
    ChaosIntensity ci{name, {.events_per_s = 8.0,
                             .min_heal = 150 * kMillisecond,
                             .mean_extra = 200 * kMillisecond,
                             .crash_weight = 0,
                             .sever_weight = 0}};
    ci.storm.*weight = 1.0;
    out.push_back(std::move(ci));
  }
  // The composite: the whole palette at once, classic kinds included.
  out.push_back({"gray-mix", {.events_per_s = 12.0,
                              .min_heal = 120 * kMillisecond,
                              .mean_extra = 180 * kMillisecond,
                              .cpu_weight = 1.0,
                              .flap_weight = 1.0,
                              .dup_weight = 1.0,
                              .reorder_weight = 1.0,
                              .skew_weight = 1.0}});
  return out;
}

/// Portable 64-bit FNV-1a (std::hash<std::string> is stdlib-specific; seed
/// derivation must be identical on every platform for committed baselines).
inline std::uint64_t chaos_salt(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The trial's root seed: a pure function of the sweep coordinates, shared
/// by the trial and the storm it arms, so a minimizer probe replays the
/// exact workload of a red grid point.
inline std::uint64_t chaos_trial_seed(const TrialConfig& tc,
                                      const ChaosIntensity& ci,
                                      double offered_rate) {
  return derive_seed(trial_seed(tc, offered_rate), chaos_salt(ci.name));
}

}  // namespace canopus::workload
