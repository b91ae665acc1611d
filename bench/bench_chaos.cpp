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
//   --minimize=auditor    ddmin a RED grid point (--only, --intensity and
//                         --seed required) against the real oracle "the
//                         audited trial still reports violations", and
//                         write the minimal replayable storm.
#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
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

std::string flag_value(int argc, char** argv, const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  return "";
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == flag) return true;
  return false;
}

/// The sweep's fault timing, shared by the sweep and --minimize=auditor so
/// a minimizer run replays the exact trial of a red grid point.
FaultTiming chaos_timing(bool quick, bool wan) {
  FaultTiming ft;
  if (wan) {  // WAN phases must dwarf the 80+ ms inter-DC round trips
    ft.warmup = 500 * kMillisecond;
    ft.fault_at = 1'500 * kMillisecond;
    ft.heal_at = 3'000 * kMillisecond;
    ft.end_at = 4'500 * kMillisecond;
    ft.drain = 1'000 * kMillisecond;
  } else {
    ft.warmup = 300 * kMillisecond;
    ft.fault_at = 700 * kMillisecond;
    ft.heal_at = quick ? 2'000 * kMillisecond : 3'500 * kMillisecond;
    ft.end_at = ft.heal_at + 700 * kMillisecond;
    ft.drain = 700 * kMillisecond;
  }
  return ft;
}

TrialConfig chaos_base(bool wan, int sim_threads) {
  TrialConfig base;
  base.sim_threads = sim_threads;
  base.groups = 3;
  base.per_group = 3;
  base.client_machines = 2;
  if (wan) {
    // Deep repair windows so a node dark through a long storm can rejoin,
    // but the DEFAULT retry timers: fault_tuned's 25 ms retries are
    // rack-scale tunings that would thrash 80+ ms WAN round trips.
    base.wan = true;
    base.zab.history_depth = 16'384;
    base.epaxos.repair_window = 16'384;
  } else {
    base = fault_tuned(base);
  }
  return base;
}

void write_storm_json(const std::string& path,
                      const simnet::FaultSchedule& storm,
                      const StormJsonMeta& meta) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  storm_to_json(f, storm, meta);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

bool storms_equal(const simnet::FaultSchedule& x,
                  const simnet::FaultSchedule& y) {
  if (x.events().size() != y.events().size()) return false;
  for (std::size_t i = 0; i < x.events().size(); ++i) {
    const simnet::FaultEvent &a = x.events()[i], &b = y.events()[i];
    if (a.at != b.at || a.kind != b.kind || a.a != b.a || a.b != b.b ||
        a.x != b.x || a.d != b.d)
      return false;
  }
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
  if (!storms_equal(first.minimal, second.minimal) ||
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
  write_storm_json(json_path, first.minimal, meta);
  return ok ? 0 : 2;
}

/// --minimize=auditor: shrink one red grid point against the real oracle.
int minimize_auditor(int argc, char** argv, const std::string& json_path) {
  const bool quick = has_flag(argc, argv, "--quick");
  const std::string sys_name = flag_value(argc, argv, "--only=");
  const std::string int_name = flag_value(argc, argv, "--intensity=");
  const std::string seed_str = flag_value(argc, argv, "--seed=");
  if (sys_name.empty() || int_name.empty() || seed_str.empty()) {
    std::fprintf(stderr,
                 "error: --minimize=auditor needs the full grid coordinates: "
                 "--only=SYSTEM --intensity=NAME --seed=K\n");
    return 1;
  }

  bool found_sys = false;
  System sys = System::kCanopus;
  for (System s : kAllSystems)
    if (std::string(system_name(s)).find(sys_name) != std::string::npos) {
      sys = s;
      found_sys = true;
      break;
    }
  std::vector<ChaosIntensity> intensities = standard_intensities();
  intensities.push_back(
      {"extreme", 50.0, 2, 6, 100 * kMillisecond, 120 * kMillisecond});
  for (ChaosIntensity& g : gray_intensities())
    intensities.push_back(std::move(g));
  const ChaosIntensity* ci = nullptr;
  for (const ChaosIntensity& c : intensities)
    if (c.name == int_name) ci = &c;
  if (!found_sys || ci == nullptr) {
    std::fprintf(stderr, "error: unknown system or intensity\n");
    return 1;
  }

  const FaultTiming ft = chaos_timing(quick, /*wan=*/false);
  TrialConfig tc = chaos_base(/*wan=*/false, /*sim_threads=*/1);
  tc.system = sys;
  tc.seed = std::stoull(seed_str);
  tc.warmup = ft.warmup;
  const double rate = 12'000;

  Trial probe = chaos_trial(tc, *ci, ft, rate);
  const simnet::FaultSchedule storm = *probe.faults;
  std::printf("grid point %s/%s/seed %s: storm of %zu events; probing...\n",
              system_name(sys), int_name.c_str(), seed_str.c_str(),
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
  if (!res.reproduced) {
    std::printf("grid point is green — nothing to minimize\n");
    return 0;
  }
  std::printf("minimized: %zu events -> %zu (probes %zu, duration shrinks "
              "%zu)\n",
              res.original_events, res.minimal_events, res.probes,
              res.duration_shrinks);
  StormJsonMeta meta;
  meta.system = system_name(sys);
  meta.intensity = int_name;
  meta.seed = tc.seed;
  meta.offered_rate = rate;
  meta.reproduced = true;
  meta.original_events = res.original_events;
  meta.probes = res.probes;
  meta.duration_shrinks = res.duration_shrinks;
  write_storm_json(json_path, res.minimal, meta);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  const std::string minimize = flag_value(argc, argv, "--minimize=");
  if (!minimize.empty()) {
    std::string json_path = flag_value(argc, argv, "--json=");
    if (json_path.empty()) json_path = "BENCH_storm_min.json";
    if (minimize == "synthetic") return minimize_synthetic(json_path);
    if (minimize == "auditor") return minimize_auditor(argc, argv, json_path);
    std::fprintf(stderr, "error: --minimize must be synthetic or auditor\n");
    return 1;
  }

  const bool wan = has_flag(argc, argv, "--wan");
  bench::Harness h(
      argc, argv, wan ? "chaos_wan" : "chaos",
      wan ? "Chaos sweep on the Table 1 multi-DC topology, invariant-audited"
          : "Chaos sweep: seeded fault storms x intensity, invariant-audited",
      wan ? "Sec 8.2 topology (Table 1); no paper figure"
          : "Sec 6 (safety under failures); no paper figure");
  const bool quick = h.quick();

  // Bisection filters: replay one slice of the grid (same derived seeds as
  // the full sweep — filtering changes WHICH trials run, never their bits).
  const std::string only_system = flag_value(argc, argv, "--only=");
  const std::string only_intensity = flag_value(argc, argv, "--intensity=");
  const std::string only_seed = flag_value(argc, argv, "--seed=");

  const FaultTiming ft = chaos_timing(quick, wan);
  TrialConfig base = chaos_base(wan, h.sim_threads());
  base.warmup = ft.warmup;
  const double rate = wan ? 6'000 : 12'000;

  // The intensity axis. LAN: the classic escalation plus the gray palette
  // (one pure storm per gray kind, then the all-kinds mix). WAN: a reduced
  // grid — long phases make each trial ~4x a LAN one.
  std::vector<ChaosIntensity> intensities;
  std::vector<std::uint64_t> classic_seeds, gray_seeds;
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
          {"extreme", 50.0, 2, 6, 100 * kMillisecond, 120 * kMillisecond});
    for (ChaosIntensity& ci : gray_intensities())
      intensities.push_back(std::move(ci));
    classic_seeds = quick ? std::vector<std::uint64_t>{1, 2, 3}
                          : std::vector<std::uint64_t>{1, 2, 3, 4, 5};
    gray_seeds = quick ? std::vector<std::uint64_t>{1}
                       : std::vector<std::uint64_t>{1, 2, 3};
  }

  struct Job {
    System system;
    const ChaosIntensity* intensity;
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  for (System sys : kAllSystems) {
    if (!only_system.empty() &&
        std::string(system_name(sys)).find(only_system) == std::string::npos)
      continue;
    for (const ChaosIntensity& ci : intensities) {
      if (!only_intensity.empty() && ci.name != only_intensity) continue;
      const bool gray = ci.name.rfind("gray-", 0) == 0;
      for (std::uint64_t seed : gray ? gray_seeds : classic_seeds) {
        if (!only_seed.empty() && std::to_string(seed) != only_seed) continue;
        jobs.push_back({sys, &ci, seed});
      }
    }
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "error: --only/--intensity/--seed matched nothing\n");
    return 1;
  }

  std::vector<TrialReport> results(jobs.size());
  h.pool().run_indexed(jobs.size(), [&](std::size_t i) {
    TrialConfig tc = base;
    tc.system = jobs[i].system;
    tc.seed = jobs[i].seed;
    results[i] = run_trial(chaos_trial(tc, *jobs[i].intensity, ft, rate));
  });

  std::uint64_t violations_total = 0;
  std::uint64_t retention_breaches = 0;
  std::string last_system;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const TrialReport& r = results[i];
    const GroupReport& fleet = r.groups[0];
    const std::string system = system_name(jobs[i].system);
    const std::string& intensity = jobs[i].intensity->name;
    const std::string seed = std::to_string(jobs[i].seed);
    if (system != last_system) {
      std::printf("\n--- %s ---\n", system.c_str());
      last_system = system;
    }
    std::printf(
        "  %-12s seed %llu  %2llu faults  avail %5.1f%%/%5.1f%%/%5.1f%%  "
        "%s  %s\n",
        intensity.c_str(), static_cast<unsigned long long>(jobs[i].seed),
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
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].system != sys) continue;
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
