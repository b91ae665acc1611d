// Chaos sweep: seeded fault storms swept over intensity, for every
// consensus system, with the invariant audit plane judging every trial
// (workload/audit.h).
//
// No paper figure corresponds to this bench — the paper's evaluation is
// failure-free — but the design argument of §6 is that Canopus trades
// availability under rare failures for common-case performance while never
// violating safety. The chaos sweep makes that claim falsifiable: storms
// drawn from seeded RNGs (simnet/chaos.h) hammer all four systems with
// randomized fault sequences — the fail-stop kinds (crash/recover,
// sever/heal) and the gray palette (degraded CPU, flapping links,
// duplication, bounded reordering, clock skew) — and the auditor checks
// commit-prefix agreement, no-lost-acked-writes and per-session monotonic
// reads CONTINUOUSLY. Violations must be zero for every grid point; the
// binary exits nonzero otherwise, so CI's chaos-smoke label gates on it.
//
// Emits BENCH_chaos.json (canopus-bench-v1): one series per
// (system, intensity, seed) with points "before"/"storm"/"after", scalars
//   violations, fault_events, acked_writes, committed_writes,
//   commit_spread, comparable_nodes, client_failed, recovered,
//   recovery_ms, availability_storm, availability_after
// plus figure-level per-system recovery percentiles and the violation
// total. Every trial builds an isolated simulator from seeds derived off
// its (seed, intensity) coordinates, so results are bit-identical to a
// serial run regardless of --threads — and a violating grid point can be
// replayed alone with --only=SYSTEM --seed=K --intensity=NAME (see
// EXPERIMENTS.md "Chaos sweep methodology" for the bisection recipe).
//
// Extra modes:
//   --wan                 storms on the Table 1 multi-DC topology
//                         (BENCH_chaos_wan.json, figure chaos_wan). Gates
//                         on the auditor alone; commit_spread (prefix lag
//                         across DCs) is reported, not gated — the same
//                         relaxation bench_failures --wan uses.
//   --minimize=synthetic  self-test of the storm minimizer: shrink a
//                         generated ~50-event storm against a predicate
//                         oracle with a planted 2-event core; exits
//                         nonzero unless it reduces to <= 3 events and
//                         reduces identically twice. Writes the minimal
//                         storm as canopus-storm-v1 JSON (--json=PATH,
//                         default BENCH_storm_min.json).
//   --minimize=auditor    ddmin one grid point — --only, --intensity and
//                         --seed must name exactly one row of the sweep
//                         that the same --full/--wan flags run — against
//                         the real oracle "the audited trial still reports
//                         violations", and write the minimal replayable
//                         storm. A green point writes its untouched storm
//                         with "reproduced": false.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/storm_minimizer.h"

namespace {

using namespace canopus;
using namespace canopus::workload;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// One row of the sweep: a grid point.
struct Row {
  System system;
  const ChaosIntensity* intensity;
  std::uint64_t seed;
};

/// The sweep's grid for one (--full, --wan) setting. The sweep and
/// --minimize=auditor both build their trials through trial(), so a
/// minimizer run probes exactly the trial of the row it names.
struct Grid {
  Grid(bool quick, bool wan, TrialConfig tc)
      : base(std::move(tc)), rate(wan ? 6'000 : 12'000) {
    if (wan) {
      ft = wan_fault_timing();
      base = wan_fault_tuned(base);
    } else {
      ft.warmup = 300 * kMillisecond;
      ft.fault_at = 700 * kMillisecond;
      ft.heal_at = quick ? 2'000 * kMillisecond : 3'500 * kMillisecond;
      ft.end_at = ft.heal_at + 700 * kMillisecond;
      ft.drain = 700 * kMillisecond;
      base = fault_tuned(base);
    }
    base.groups = 3;
    base.per_group = 3;
    base.client_machines = 2;

    // The intensity axis. LAN: the classic escalation plus the gray palette
    // (one pure storm per gray kind, then the all-kinds mix). WAN: a
    // reduced grid — long phases make each trial ~4x a LAN one.
    if (wan) {
      for (ChaosIntensity& ci : standard_intensities())
        if (ci.name != "high") intensities.push_back(std::move(ci));
      for (ChaosIntensity& ci : gray_intensities())
        if (ci.name == "gray-mix") intensities.push_back(std::move(ci));
      classic_seeds = gray_seeds = quick ? std::vector<std::uint64_t>{1}
                                         : std::vector<std::uint64_t>{1, 2};
    } else {
      intensities = standard_intensities();
      if (!quick)
        intensities.push_back(
            {"extreme", {.events_per_s = 50.0, .max_down = 2,
                         .max_severed = 6, .min_heal = 100 * kMillisecond,
                         .mean_extra = 120 * kMillisecond}});
      for (ChaosIntensity& ci : gray_intensities())
        intensities.push_back(std::move(ci));
      classic_seeds = quick ? std::vector<std::uint64_t>{1, 2, 3}
                            : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
      gray_seeds = quick ? std::vector<std::uint64_t>{1}
                         : std::vector<std::uint64_t>{1, 2, 3};
    }
  }

  /// The rows in sweep order, filtered the way bisection asks: --only
  /// matches a substring of the system name, --intensity and --seed match
  /// exactly. Filters change WHICH trials run, never their bits.
  std::vector<Row> rows(const std::string& only_system,
                        const std::string& only_intensity,
                        const std::string& only_seed) const {
    std::vector<Row> out;
    for (System sys : kAllSystems) {
      if (std::string(system_name(sys)).find(only_system) == std::string::npos)
        continue;
      for (const ChaosIntensity& ci : intensities) {
        if (!only_intensity.empty() && ci.name != only_intensity) continue;
        const bool gray = ci.name.rfind("gray-", 0) == 0;
        for (std::uint64_t seed : gray ? gray_seeds : classic_seeds) {
          if (!only_seed.empty() && std::to_string(seed) != only_seed)
            continue;
          out.push_back({sys, &ci, seed});
        }
      }
    }
    return out;
  }

  Trial trial(const Row& row) const {
    TrialConfig tc = base;
    tc.system = row.system;
    tc.seed = row.seed;
    return chaos_trial(tc, *row.intensity, ft, rate);
  }

  FaultTiming ft;
  TrialConfig base;
  double rate;
  std::vector<ChaosIntensity> intensities;
  std::vector<std::uint64_t> classic_seeds, gray_seeds;
};

/// Writes the canopus-storm-v1 artifact; false (after an error message)
/// when the file could not be written in full.
bool write_storm_json(const std::string& path,
                      const simnet::FaultSchedule& storm,
                      const StormJsonMeta& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  storm_to_json(f, storm, meta);
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::fprintf(stderr, "error: failed writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// --minimize=synthetic: end-to-end minimizer self-test with a cheap
/// predicate oracle, so CI can smoke the reduction loop without running
/// hundreds of audited trials.
int minimize_synthetic(const std::string& json_path) {
  // A noisy all-palette storm over 9 nodes, plus a planted 2-event core
  // (a reorder window on pair (3,7) with an unmistakable jitter bound).
  simnet::ChaosConfig cc;
  cc.start = 200 * kMillisecond;
  cc.end = 3'200 * kMillisecond;
  cc.events_per_s = 10.0;
  cc.min_heal = 100 * kMillisecond;
  cc.mean_extra = 150 * kMillisecond;
  cc.cpu_weight = cc.flap_weight = cc.dup_weight = cc.reorder_weight =
      cc.skew_weight = 1.0;
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < 9; ++n) nodes.push_back(n);

  const Time core_at = 1'200 * kMillisecond;
  const Time core_jitter = 12'345;  // no generated event carries this d
  auto make_storm = [&] {
    simnet::ChaosScheduleGenerator gen(42);
    std::vector<simnet::FaultEvent> evs = gen.generate(cc, nodes).events();
    evs.push_back({core_at, simnet::FaultEvent::Kind::kReorderStart, 3, 7, 0,
                   core_jitter});
    evs.push_back({2'400 * kMillisecond, simnet::FaultEvent::Kind::kReorderStop,
                   3, 7, 0, 0});
    std::stable_sort(evs.begin(), evs.end(),
                     [](const simnet::FaultEvent& a,
                        const simnet::FaultEvent& b) { return a.at < b.at; });
    simnet::FaultSchedule s;
    for (const simnet::FaultEvent& ev : evs) s.add(ev);
    return s;
  };

  // "Failure": the schedule still opens the planted reorder window on
  // (3,7) and closes it later — the minimal reproducer is that one pair.
  auto oracle = [&](const simnet::FaultSchedule& s) {
    Time opened = -1;
    for (const simnet::FaultEvent& ev : s.events())
      if (ev.kind == simnet::FaultEvent::Kind::kReorderStart && ev.a == 3 &&
          ev.b == 7 && ev.d == core_jitter)
        opened = ev.at;
    if (opened < 0) return false;
    for (const simnet::FaultEvent& ev : s.events())
      if (ev.kind == simnet::FaultEvent::Kind::kReorderStop && ev.a == 3 &&
          ev.b == 7 && ev.at > opened)
        return true;
    return false;
  };

  auto reduce = [&] {
    StormMinimizer mini(oracle);
    return mini.minimize(make_storm());
  };
  const MinimizeResult first = reduce();
  const MinimizeResult second = reduce();  // same seed => same reduction

  std::printf("synthetic storm: %zu events -> %zu (probes %zu, "
              "duration shrinks %zu)\n",
              first.original_events, first.minimal_events, first.probes,
              first.duration_shrinks);
  bool ok = true;
  if (!first.reproduced) {
    std::fprintf(stderr, "FAIL: oracle rejected the full storm\n");
    ok = false;
  }
  if (first.minimal_events > 3) {
    std::fprintf(stderr, "FAIL: minimal storm has %zu events (want <= 3)\n",
                 first.minimal_events);
    ok = false;
  }
  if (first.minimal.events() != second.minimal.events() ||
      first.probes != second.probes) {
    std::fprintf(stderr, "FAIL: reduction is not deterministic\n");
    ok = false;
  }
  if (!oracle(first.minimal)) {
    std::fprintf(stderr, "FAIL: minimal storm no longer trips the oracle\n");
    ok = false;
  }

  StormJsonMeta meta;
  meta.system = "synthetic";
  meta.intensity = "self-test";
  meta.seed = 42;
  meta.reproduced = first.reproduced;
  meta.original_events = first.original_events;
  meta.probes = first.probes;
  meta.duration_shrinks = first.duration_shrinks;
  if (!write_storm_json(json_path, first.minimal, meta)) return 1;
  return ok ? 0 : 2;
}

/// --minimize=auditor: shrink one red grid point against the real oracle.
int minimize_auditor(const Grid& grid, const std::vector<Row>& rows,
                     const std::string& json_path) {
  if (rows.size() != 1) {
    std::fprintf(stderr,
                 "error: --minimize=auditor needs --only=SYSTEM "
                 "--intensity=NAME --seed=K naming one row of the sweep "
                 "(%zu rows match)\n",
                 rows.size());
    return 1;
  }
  const Row& row = rows[0];
  Trial probe = grid.trial(row);
  const simnet::FaultSchedule storm = *probe.faults;
  std::printf("grid point %s/%s/seed %llu: storm of %zu events; probing...\n",
              system_name(row.system), row.intensity->name.c_str(),
              static_cast<unsigned long long>(row.seed),
              storm.events().size());
  std::size_t probe_no = 0;
  StormMinimizer mini([&](const simnet::FaultSchedule& candidate) {
    probe.faults = candidate;
    const std::uint64_t violations = run_trial(probe).violations();
    std::printf("  probe %zu: %zu events -> %llu violations\n", ++probe_no,
                candidate.events().size(),
                static_cast<unsigned long long>(violations));
    return violations > 0;
  });
  const MinimizeResult res = mini.minimize(storm);
  if (res.reproduced)
    std::printf("minimized: %zu events -> %zu (probes %zu, duration shrinks "
                "%zu)\n",
                res.original_events, res.minimal_events, res.probes,
                res.duration_shrinks);
  else
    std::printf("grid point is green — nothing to minimize\n");
  StormJsonMeta meta;
  meta.system = system_name(row.system);
  meta.intensity = row.intensity->name;
  meta.seed = row.seed;
  meta.offered_rate = grid.rate;
  meta.reproduced = res.reproduced;
  meta.original_events = res.original_events;
  meta.probes = res.probes;
  meta.duration_shrinks = res.duration_shrinks;
  return write_storm_json(json_path, res.minimal, meta) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  using bench::Harness;
  const std::string minimize =
      Harness::arg_value(argc, argv, "--minimize=", "");
  const std::string storm_path =
      Harness::arg_value(argc, argv, "--json=", "BENCH_storm_min.json");
  if (minimize == "synthetic") return minimize_synthetic(storm_path);
  if (!minimize.empty() && minimize != "auditor") {
    std::fprintf(stderr, "error: --minimize must be synthetic or auditor\n");
    return 1;
  }

  const bool wan = Harness::has_flag(argc, argv, "--wan");
  Harness h(
      argc, argv, wan ? "chaos_wan" : "chaos",
      wan ? "Chaos sweep on the Table 1 multi-DC topology, invariant-audited"
          : "Chaos sweep: seeded fault storms x intensity, invariant-audited",
      wan ? "Sec 8.2 topology (Table 1); no paper figure"
          : "Sec 6 (safety under failures); no paper figure");
  const Grid grid(h.quick(), wan, h.trial_config());
  const double rate = grid.rate;
  const std::vector<Row> rows =
      grid.rows(Harness::arg_value(argc, argv, "--only=", ""),
                Harness::arg_value(argc, argv, "--intensity=", ""),
                Harness::arg_value(argc, argv, "--seed=", ""));
  if (rows.empty()) {
    std::fprintf(stderr, "error: --only/--intensity/--seed matched nothing\n");
    return 1;
  }
  if (minimize == "auditor") return minimize_auditor(grid, rows, storm_path);

  std::vector<TrialReport> results(rows.size());
  h.pool().run_indexed(rows.size(), [&](std::size_t i) {
    results[i] = run_trial(grid.trial(rows[i]));
  });

  std::uint64_t violations_total = 0;
  std::uint64_t retention_breaches = 0;
  std::string last_system;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrialReport& r = results[i];
    const GroupReport& fleet = r.groups[0];
    const std::string system = system_name(rows[i].system);
    const std::string& intensity = rows[i].intensity->name;
    const std::string seed = std::to_string(rows[i].seed);
    if (system != last_system) {
      std::printf("\n--- %s ---\n", system.c_str());
      last_system = system;
    }
    std::printf(
        "  %-12s seed %llu  %2llu faults  avail %5.1f%%/%5.1f%%/%5.1f%%  "
        "%s  %s\n",
        intensity.c_str(), static_cast<unsigned long long>(rows[i].seed),
        static_cast<unsigned long long>(r.fault_events),
        100 * r.before.throughput / rate, 100 * r.during.throughput / rate,
        100 * r.after.throughput / rate,
        fleet.violations == 0 ? "clean" : "VIOLATED",
        r.recovered()
            ? (std::string("recovered in ") +
               std::to_string(r.recovery_ns / kMillisecond) + " ms")
                  .c_str()
            : "no post-storm completion");
    violations_total += fleet.violations;
    if (!fleet.retention_ok) ++retention_breaches;
    for (const AuditViolation& v : r.violation_details)
      std::printf("      !! %s at t=%lld ms: %s\n",
                  audit_violation_name(v.kind),
                  static_cast<long long>(v.at / kMillisecond),
                  v.detail.c_str());

    // committed_writes and commit_spread are the auditor's replayed counts
    // (GroupReport), which the committed baseline pins.
    auto& sr =
        h.add_series(system + " / " + intensity + " / seed " + seed);
    sr.attr("system", system)
        .attr("intensity", intensity)
        .attr("seed", seed)
        .scalar("violations", static_cast<double>(fleet.violations))
        .scalar("fault_events", static_cast<double>(r.fault_events))
        .scalar("acked_writes", static_cast<double>(fleet.acked_writes))
        .scalar("observed_reads", static_cast<double>(fleet.observed_reads))
        .scalar("committed_writes", static_cast<double>(fleet.audited_max))
        .scalar("commit_spread",
                static_cast<double>(fleet.audited_max - fleet.audited_min))
        .scalar("comparable_nodes", static_cast<double>(fleet.comparable))
        .scalar("client_failed", static_cast<double>(r.client_failed))
        .scalar("recovered", r.recovered() ? 1 : 0)
        .scalar("recovery_ms",
                r.recovered()
                    ? static_cast<double>(r.recovery_ns) / kMillisecond
                    : -1)
        .scalar("snapshots_installed", static_cast<double>(fleet.snapshots))
        .scalar("log_entries_retained",
                static_cast<double>(fleet.max_retained))
        .scalar("retention_ok", fleet.retention_ok ? 1 : 0)
        .scalar("availability_storm", r.during.throughput / rate)
        .scalar("availability_after", r.after.throughput / rate)
        .point("before", r.before)
        .point("storm", r.during)
        .point("after", r.after);
  }

  // Per-system aggregates over the grid: recovery-time percentiles (over
  // trials that recovered) and how many did.
  for (System sys : kAllSystems) {
    std::vector<double> rec_ms;
    int trials = 0, recovered = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].system != sys) continue;
      ++trials;
      if (results[i].recovered()) {
        ++recovered;
        rec_ms.push_back(static_cast<double>(results[i].recovery_ns) /
                         kMillisecond);
      }
    }
    if (trials == 0) continue;
    const std::string name = system_name(sys);
    h.add_scalar("trials_" + name, trials);
    h.add_scalar("recovered_trials_" + name, recovered);
    h.add_scalar("recovery_p50_ms_" + name, percentile(rec_ms, 0.50));
    h.add_scalar("recovery_p90_ms_" + name, percentile(rec_ms, 0.90));
    h.add_scalar("recovery_max_ms_" + name, percentile(rec_ms, 1.0));
    std::printf("\n%s: %d/%d trials recovered, recovery p50 %.1f ms  "
                "p90 %.1f ms\n",
                name.c_str(), recovered, trials, percentile(rec_ms, 0.50),
                percentile(rec_ms, 0.90));
  }

  h.add_scalar("violations_total", static_cast<double>(violations_total));
  h.add_scalar("retention_breaches", static_cast<double>(retention_breaches));
  std::printf("\ninvariant violations: %llu   retention breaches: %llu\n",
              static_cast<unsigned long long>(violations_total),
              static_cast<unsigned long long>(retention_breaches));
  // Gate on the auditor plus the compaction bound — in WAN mode prefix lag
  // across DCs (commit_spread) is expected during storms and is reported
  // per series, never gated (the bench_failures --wan relaxation). A node
  // retaining more log than its configured bound is a compaction bug at
  // any latitude.
  const int json_rc = h.finish();
  return json_rc != 0
             ? json_rc
             : (violations_total > 0 || retention_breaches > 0 ? 2 : 0);
}
