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
#include <vector>

#include "simnet/chaos.h"
#include "workload/deployments.h"
#include "workload/fault_scenario.h"

namespace canopus::workload {

/// One point on the storm-intensity axis. The trailing weights select the
/// fault palette (simnet::ChaosConfig): the classic fail-stop kinds default
/// on, the gray kinds default off, so pre-gray intensity literals mean what
/// they always did.
struct ChaosIntensity {
  std::string name;
  double events_per_s = 10.0;  ///< mean fault injections per second
  int max_down = 1;            ///< blast radius: concurrent crashed nodes
  int max_severed = 2;         ///< blast radius: concurrent severed pairs
  Time min_heal = 120 * kMillisecond;
  Time mean_extra = 200 * kMillisecond;

  double crash_weight = 1.0;
  double sever_weight = 1.0;
  double cpu_weight = 0;      ///< gray: degraded-CPU nodes
  double flap_weight = 0;     ///< gray: flapping links
  double dup_weight = 0;      ///< gray: message duplication
  double reorder_weight = 0;  ///< gray: bounded delivery reordering
  double skew_weight = 0;     ///< gray: clock skew on timer arming
};

/// The standard intensity grid. The blast radius never exceeds a minority
/// of a 3-node group *at once*, but repeated crashes can darken more nodes
/// over a storm's lifetime for systems without a rejoin path (Canopus), so
/// high intensities are expected to cost availability — never safety.
inline std::vector<ChaosIntensity> standard_intensities() {
  return {
      {"low", 4.0, 1, 1, 150 * kMillisecond, 250 * kMillisecond},
      {"medium", 10.0, 2, 2, 120 * kMillisecond, 200 * kMillisecond},
      {"high", 25.0, 2, 4, 100 * kMillisecond, 150 * kMillisecond},
  };
}

/// The gray-failure axis: one pure storm per gray kind (crash/sever off,
/// exactly one gray weight on), so a violation or a digest drift points at
/// a single fault primitive. Rates are moderate — gray faults overlap
/// (flap + skew on one node is legal), the per-kind caps bound each kind.
inline std::vector<ChaosIntensity> gray_intensities() {
  std::vector<ChaosIntensity> out;
  const char* names[] = {"gray-cpu", "gray-flap", "gray-dup", "gray-reorder",
                         "gray-skew"};
  for (int k = 0; k < 5; ++k) {
    ChaosIntensity ci;
    ci.name = names[k];
    ci.events_per_s = 8.0;
    ci.min_heal = 150 * kMillisecond;
    ci.mean_extra = 200 * kMillisecond;
    ci.crash_weight = 0;
    ci.sever_weight = 0;
    (k == 0   ? ci.cpu_weight
     : k == 1 ? ci.flap_weight
     : k == 2 ? ci.dup_weight
     : k == 3 ? ci.reorder_weight
              : ci.skew_weight) = 1.0;
    out.push_back(std::move(ci));
  }
  // The composite: the whole palette at once, classic kinds included.
  ChaosIntensity mix;
  mix.name = "gray-mix";
  mix.events_per_s = 12.0;
  mix.min_heal = 120 * kMillisecond;
  mix.mean_extra = 180 * kMillisecond;
  mix.cpu_weight = mix.flap_weight = mix.dup_weight = mix.reorder_weight =
      mix.skew_weight = 1.0;
  out.push_back(std::move(mix));
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

/// Maps an intensity point onto the generator config for one storm window.
inline simnet::ChaosConfig chaos_config_for(const ChaosIntensity& ci,
                                            const FaultTiming& ft) {
  simnet::ChaosConfig cc;
  cc.start = ft.fault_at;
  cc.end = ft.heal_at;
  cc.events_per_s = ci.events_per_s;
  cc.max_down = ci.max_down;
  cc.max_severed = ci.max_severed;
  cc.min_heal = ci.min_heal;
  cc.mean_extra = ci.mean_extra;
  cc.crash_weight = ci.crash_weight;
  cc.sever_weight = ci.sever_weight;
  cc.cpu_weight = ci.cpu_weight;
  cc.flap_weight = ci.flap_weight;
  cc.dup_weight = ci.dup_weight;
  cc.reorder_weight = ci.reorder_weight;
  cc.skew_weight = ci.skew_weight;
  return cc;
}

}  // namespace canopus::workload
