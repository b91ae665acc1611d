// Failure drill: every consensus system in the repository runs the same
// fault-scenario suite through workload::ConsensusService — crashes,
// leader loss, super-leaf majority loss, a one-way partition, rolling
// crashes — and the drill reports availability before/during/after each
// fault plus the safety audit (live nodes must agree on the committed
// writes; Canopus is expected to STALL, not diverge, when a super-leaf
// loses its majority, paper §6).
//
//   ./build/example_failure_drill
//
// Exits nonzero if any system violates safety in any scenario.
#include <cstdio>
#include <string>
#include <vector>

#include "workload/trial.h"

using namespace canopus;
using namespace canopus::workload;

int main() {
  const int groups = 2, per_group = 3;
  FaultTiming ft;  // 0.3s warmup, fault at 0.8s, heal at 1.6s, end at 2.4s

  TrialConfig base;
  base.groups = groups;
  base.per_group = per_group;
  base.client_machines = 1;
  base = fault_tuned(base);

  const auto scenarios = standard_scenarios(groups, per_group, ft);
  const double rate = 6'000;  // well within every system's capacity

  std::printf("failure drill: %d super-leaves x %d nodes, %.0f req/s, "
              "fault at %.1fs, heal at %.1fs\n",
              groups, per_group, rate,
              static_cast<double>(ft.fault_at) / kSecond,
              static_cast<double>(ft.heal_at) / kSecond);

  bool all_safe = true;
  for (const FaultScenario& sc : scenarios) {
    std::printf("\n=== %-24s  %s\n", sc.name.c_str(), sc.description.c_str());
    std::printf("    %-10s %28s %9s %7s %7s  %s\n", "system",
                "throughput before/during/after", "committed", "stall?",
                "resume?", "agree?");
    for (System sys : kAllSystems) {
      TrialConfig tc = base;
      tc.system = sys;
      const TrialReport r = run_trial(scenario_trial(tc, sc, ft, rate));
      const double b = r.before.throughput / rate;
      const double d = r.during.throughput / rate;
      const double a = r.after.throughput / rate;
      std::printf("    %-10s        %5.0f%% / %5.0f%% / %5.0f%% %9llu %7s %7s  %s\n",
                  system_name(sys), 100 * b, 100 * d, 100 * a,
                  static_cast<unsigned long long>(r.committed_writes()),
                  r.stalled_during() ? "yes" : "no",
                  r.progressed_after() ? "yes" : "no",
                  r.agree() ? "YES" : "NO  <-- SAFETY VIOLATION");
      if (!r.agree()) all_safe = false;
      // The paper's §6 liveness story, checked end to end: majority loss
      // stalls Canopus (and only stalls it — digests above must agree).
      if (sc.majority_loss && sys == System::kCanopus && !r.stalled_during()) {
        std::printf("    ^ expected Canopus to stall on majority loss!\n");
        all_safe = false;
      }
    }
  }

  std::printf("\n%s\n",
              all_safe
                  ? "all systems safe under every scenario: live nodes "
                    "agree; Canopus stalls-not-corrupts on majority loss."
                  : "SAFETY VIOLATION detected (see above).");
  return all_safe ? 0 : 1;
}
