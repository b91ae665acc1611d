// Failure-scenario bench: throughput/availability before, during and after
// each standard fault scenario, for every consensus system, under one
// deterministic fault schedule per scenario.
//
// No paper figure corresponds to this bench — the paper's evaluation is
// failure-free — but §6 (liveness) specifies how Canopus must behave under
// node and super-leaf failures, and the baselines' availability under the
// same faults is the context for that design choice. The safety columns
// assert the Agreement property under faults: live nodes of a system must
// report identical commit digests in every scenario.
//
// Emits BENCH_failures.json (canopus-bench-v1): one series per
// (system, scenario) with points "before"/"during"/"after" and scalars
//   digests_agree, stalled_during, progressed_after, committed_writes,
//   comparable_nodes, availability_during (throughput/offered),
//   snapshots_installed, log_entries_retained, retention_ok (ISSUE 10:
//   the compaction/state-transfer verdict — a retention breach counts as
//   a safety violation).
// The non-WAN suite includes long_downtime: an outage long enough that
// every system's repair window overflows and catch-up must go through
// snapshot/state transfer (the Canopus sponsored rejoin).
// The trial matrix runs on the shared TrialPool; every trial builds an
// isolated simulator from a derived seed, so results are bit-identical to
// a serial run regardless of --threads.
//
// --wan switches to geo-failover mode (BENCH_failures_wan.json): the
// Table 1 multi-DC topology, and the scenarios kill a WHOLE datacenter —
// first DC 0 (taking the Zab/Raft leader), then DC 1 — reporting the
// client-observed failover time (first post-fault write completion) and
// per-phase availability. A dead DC is a dead super-leaf, so Canopus must
// stall, by design; quorum systems must fail over.
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  using bench::Harness;
  const bool wan = Harness::has_flag(argc, argv, "--wan");
  // Bisection filter: run one scenario across every system (same trial
  // seeds as the full matrix — filtering changes WHICH trials run, never
  // their bits). The ctest long_downtime smoke uses this.
  const std::string only_scenario =
      Harness::arg_value(argc, argv, "--scenario=", "");
  Harness h(
      argc, argv, wan ? "failures_wan" : "failures",
      wan ? "Geo-failover: whole-datacenter outage on the Table 1 topology"
          : "Failure scenarios: availability + safety per system",
      wan ? "Sec 8.2 topology (Table 1); no paper figure"
          : "Sec 6 (liveness under failures); no paper figure");
  const bool quick = h.quick();

  const int groups = 3, per_group = 3;
  FaultTiming ft = wan ? wan_fault_timing() : FaultTiming{};
  if (!wan && !quick) {  // longer phases tighten the availability estimates
    ft.fault_at = 1'300 * kMillisecond;
    ft.heal_at = 2'600 * kMillisecond;
    ft.end_at = 3'900 * kMillisecond;
    ft.drain = 800 * kMillisecond;
  }

  TrialConfig base;
  base.sim_threads = h.sim_threads();
  base.groups = groups;
  base.per_group = per_group;
  base.client_machines = 2;
  base.warmup = ft.warmup;
  base = wan ? wan_fault_tuned(base) : fault_tuned(base);
  const double rate = wan ? 6'000 : 20'000;

  // Scenarios carry their own timing: the standard suite shares `ft`, but
  // long_downtime needs an outage long enough to overflow every repair
  // window (ISSUE 10) — it would be a plain single_node_crash under `ft`.
  std::vector<FaultScenario> scenarios;
  std::vector<FaultTiming> timings;
  if (wan) {
    scenarios.push_back(dc_outage_scenario(0, per_group, ft));  // leader DC
    scenarios.push_back(dc_outage_scenario(1, per_group, ft));
    timings.assign(scenarios.size(), ft);
  } else {
    scenarios = standard_scenarios(groups, per_group, ft);
    timings.assign(scenarios.size(), ft);
    const FaultTiming ldt = long_downtime_timing();
    scenarios.push_back(long_downtime_scenario(per_group, ldt));
    timings.push_back(ldt);
  }

  // Flatten the (system x scenario) matrix for the pool; results land by
  // index, which keeps the output identical for any thread count.
  struct Job {
    System system;
    std::size_t scenario;
  };
  std::vector<std::size_t> selected;
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc)
    if (only_scenario.empty() || scenarios[sc].name == only_scenario)
      selected.push_back(sc);
  if (selected.empty()) {
    std::fprintf(stderr, "error: --scenario=%s matched nothing\n",
                 only_scenario.c_str());
    return 1;
  }
  std::vector<Job> jobs;
  for (System sys : kAllSystems)
    for (std::size_t sc : selected) jobs.push_back({sys, sc});

  std::vector<TrialReport> results(jobs.size());
  h.pool().run_indexed(jobs.size(), [&](std::size_t i) {
    TrialConfig tc = base;
    tc.system = jobs[i].system;
    tc.warmup = timings[jobs[i].scenario].warmup;
    results[i] = run_trial(scenario_trial(tc, scenarios[jobs[i].scenario],
                                          timings[jobs[i].scenario], rate));
  });

  int violations = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const TrialReport& r = results[i];
    const GroupReport& fleet = r.groups[0];
    const FaultScenario& scen = scenarios[jobs[i].scenario];
    if (i % selected.size() == 0)
      std::printf("\n--- %s ---\n", system_name(jobs[i].system));
    char fo[32];
    if (r.failed_over())
      std::snprintf(fo, sizeof fo, "%.1f ms",
                    static_cast<double>(r.failover_ns) / 1e6);
    else
      std::snprintf(fo, sizeof fo, "never");
    std::printf(
        "  %-24s  avail %5.1f%% / %5.1f%% / %5.1f%%   failover %-10s %s%s\n",
        scen.name.c_str(), 100 * r.before.throughput / rate,
        100 * r.during.throughput / rate, 100 * r.after.throughput / rate, fo,
        fleet.agree ? "agree" : "DIVERGED",
        r.stalled_during() ? " (stalled)" : "");
    if (!fleet.agree) ++violations;
    // Every scenario heals and drains, so comparable nodes must converge
    // to the same commit count — EXCEPT a system stalled by majority loss
    // (Canopus survivors freeze a broadcast apart and the dead super-leaf
    // never rejoins).
    if (fleet.max_count > fleet.min_count &&
        !(scen.majority_loss && r.stalled_during()))
      ++violations;
    // Canopus must stall (not diverge) when a super-leaf loses its
    // majority — §6's documented trade. (Other systems may also pause:
    // the crashed majority includes server 0, the Zab/Raft leader.)
    if (scen.majority_loss && jobs[i].system == System::kCanopus &&
        !r.stalled_during())
      ++violations;
    // Compaction contract: no node may retain more log than its configured
    // bound, in any scenario. A breach is a real bug, not a tuning issue.
    if (!fleet.retention_ok) ++violations;

    auto& sr = h.add_series(std::string(system_name(jobs[i].system)) + " / " +
                            scen.name);
    sr.attr("system", system_name(jobs[i].system))
        .attr("scenario", scen.name)
        .scalar("digests_agree", fleet.agree ? 1 : 0)
        .scalar("stalled_during", r.stalled_during() ? 1 : 0)
        .scalar("progressed_after", r.progressed_after() ? 1 : 0)
        .scalar("committed_writes", static_cast<double>(fleet.max_count))
        .scalar("comparable_nodes", static_cast<double>(fleet.comparable))
        .scalar("commit_spread",
                static_cast<double>(fleet.max_count - fleet.min_count))
        .scalar("snapshots_installed", static_cast<double>(fleet.snapshots))
        .scalar("log_entries_retained",
                static_cast<double>(fleet.max_retained))
        .scalar("retention_ok", fleet.retention_ok ? 1 : 0)
        .scalar("availability_during", r.during.throughput / rate)
        .scalar("failover_ms",
                r.failed_over() ? static_cast<double>(r.failover_ns) / 1e6
                                : -1)
        .point("before", r.before)
        .point("during", r.during)
        .point("after", r.after);
  }

  h.add_scalar("safety_violations", violations);
  std::printf("\nsafety violations: %d\n", violations);
  const int json_rc = h.finish();
  return json_rc != 0 ? json_rc : (violations > 0 ? 2 : 0);
}
