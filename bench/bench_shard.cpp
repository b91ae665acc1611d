// Sharded-deployment bench: aggregate throughput and latency vs shard
// count, uniform and zipfian key popularity, for all four systems — plus a
// per-group chaos storm with one HistoryAuditor per group.
//
// No paper figure corresponds to this bench: the paper deploys ONE Canopus
// instance. This is the production shape its super-leaf design points at —
// N independent consensus groups behind a hash-partitioned keyspace
// (workload/sharded.h) — measured with the weak-scaling methodology of
// EXPERIMENTS.md: per-group offered load held constant (R0), total offered
// = R0 x shards, so a system that shards cleanly shows aggregate committed
// throughput rising ~linearly with shard count while per-request latency
// stays flat. Router clients redirect around crashed servers and the
// million-session workload plane attributes requests to flat per-session
// cursors (full mode runs 2^20 sessions).
//
// Emits BENCH_shard.json (canopus-bench-v1): one series per
// (system, dist, shards) with point "agg" and scalars
//   shards, committed_writes, redirects, retries, client_failed, sessions,
//   groups_agree, max_group_share (hot-group imbalance; ~1/shards when
//   uniform, larger under zipf skew)
// plus one chaos series per system (4 groups, per-group storms, medium
// intensity) with per-group audit verdicts. Exits 2 on any audit violation,
// any within-group disagreement, any node retaining more log than its
// compaction bound, or if Canopus/Raft aggregate committed throughput fails
// to rise with shard count.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(argc, argv, "shard",
                   "Sharded multi-group consensus: throughput vs shard count",
                   "no paper figure; production shape of Sec 4 super-leaves");
  const bool quick = h.quick();

  const std::vector<int> shard_counts = {1, 2, 4, 8};
  const std::vector<KeyDist> dists = {KeyDist::kUniform, KeyDist::kZipfian};
  const double r0 = 20'000;  // per-group offered load (weak scaling)

  TrialConfig proto;
  proto.sim_threads = h.sim_threads();
  proto.per_group = 3;
  proto.client_machines = 2;  // per rack
  proto.warmup = 400 * kMillisecond;
  proto.measure = quick ? 1 * kSecond : 2 * kSecond;
  proto.drain = 400 * kMillisecond;
  // Full mode runs the million-session plane: 8 racks x 2 machines x 64k
  // sessions = 2^20 clients, still one 64-bit cursor per session.
  const std::uint32_t sessions = quick ? 4'096 : 65'536;

  struct Job {
    System system;
    KeyDist dist;
    int shards;
  };
  std::vector<Job> jobs;
  for (System sys : kAllSystems)
    for (KeyDist d : dists)
      for (int s : shard_counts) jobs.push_back({sys, d, s});

  std::vector<TrialReport> results(jobs.size());
  h.pool().run_indexed(jobs.size(), [&](std::size_t i) {
    TrialConfig tc = proto;
    tc.system = jobs[i].system;
    tc.key_dist = jobs[i].dist;
    tc.groups = jobs[i].shards;
    const double rate = r0 * jobs[i].shards;
    results[i] = run_trial({tc, rate, trial_seed(tc, rate), sessions});
  });

  int violations = 0;
  // committed_writes per (system, dist) across the shard axis, in
  // shard_counts order, for the scaling gates.
  std::vector<std::vector<double>> curve(
      static_cast<std::size_t>(4) * dists.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    const TrialReport& r = results[i];
    const std::uint64_t committed = r.committed_writes();
    if (i % (dists.size() * shard_counts.size()) == 0)
      std::printf("\n--- %s ---\n", system_name(j.system));
    std::printf(
        "  %-8s x%d  %7.3f Mreq/s  median %7.3f ms  p99 %7.3f ms  "
        "commits %8llu  %s\n",
        key_dist_name(j.dist), j.shards, bench::mreq(r.steady.throughput),
        bench::ms(r.steady.median), bench::ms(r.steady.p99),
        static_cast<unsigned long long>(committed),
        r.converged() ? "agree" : "DIVERGED");
    if (!r.converged() || !r.retention_ok()) ++violations;

    double max_share = 0;
    for (const GroupReport& g : r.groups)
      max_share = std::max(
          max_share,
          static_cast<double>(g.max_count) /
              std::max<double>(1.0, static_cast<double>(committed)));
    curve[i / shard_counts.size()].push_back(static_cast<double>(committed));

    auto& sr = h.add_series(std::string(system_name(j.system)) + " / " +
                            key_dist_name(j.dist) + " / shards=" +
                            std::to_string(j.shards));
    sr.attr("system", system_name(j.system))
        .attr("dist", key_dist_name(j.dist))
        .scalar("shards", j.shards)
        .scalar("committed_writes", static_cast<double>(committed))
        .scalar("redirects", static_cast<double>(r.redirects))
        .scalar("retries", static_cast<double>(r.retries))
        .scalar("client_failed", static_cast<double>(r.client_failed))
        .scalar("sessions", static_cast<double>(r.sessions))
        .scalar("groups_agree", r.converged() ? 1 : 0)
        .scalar("max_group_share", max_share)
        .point("agg", r.steady);
  }

  // Scaling gates: aggregate committed throughput must rise strictly with
  // shard count for the uniform workload (zipf is reported, not gated —
  // skew legitimately concentrates load on hot groups).
  const auto strictly_rising = [&](System sys) {
    for (std::size_t i = 0; i < jobs.size(); i += shard_counts.size()) {
      if (jobs[i].system != sys || jobs[i].dist != KeyDist::kUniform)
        continue;
      const std::vector<double>& c = curve[i / shard_counts.size()];
      for (std::size_t k = 1; k < c.size(); ++k)
        if (c[k] <= c[k - 1]) return false;
      return true;
    }
    return false;
  };
  const bool canopus_ok = strictly_rising(System::kCanopus);
  const bool raft_ok = strictly_rising(System::kRaft);
  h.add_scalar("scaling_ok_canopus", canopus_ok ? 1 : 0);
  h.add_scalar("scaling_ok_raft", raft_ok ? 1 : 0);
  if (!canopus_ok || !raft_ok) ++violations;

  // --- per-group chaos: seeded storms against every group, one auditor
  // per group; ANY violation fails the bench.
  std::printf("\n--- chaos (4 groups, per-group storms) ---\n");
  FaultTiming ft;
  ft.warmup = 400 * kMillisecond;
  ft.fault_at = 800 * kMillisecond;
  ft.heal_at = quick ? 1'800 * kMillisecond : 2'800 * kMillisecond;
  ft.end_at = ft.heal_at + 800 * kMillisecond;
  ft.drain = 600 * kMillisecond;
  const ChaosIntensity ci = standard_intensities()[1];  // medium

  std::vector<TrialReport> storms(4);
  h.pool().run_indexed(storms.size(), [&](std::size_t i) {
    TrialConfig tc = fault_tuned(proto);
    tc.system = kAllSystems[i];
    tc.groups = 4;
    storms[i] = run_trial(chaos_trial(tc, ci, ft, r0 * 4, sessions));
  });
  std::uint64_t chaos_violations = 0;
  for (std::size_t i = 0; i < storms.size(); ++i) {
    const TrialReport& r = storms[i];
    chaos_violations += r.violations();
    if (!r.retention_ok()) ++violations;
    std::printf(
        "  %-10s  %3llu faults  violations %llu  acked %8llu  "
        "redirects %6llu  %s\n",
        system_name(kAllSystems[i]),
        static_cast<unsigned long long>(r.fault_events),
        static_cast<unsigned long long>(r.violations()),
        static_cast<unsigned long long>(r.acked_writes()),
        static_cast<unsigned long long>(r.redirects),
        r.recovered() ? "recovered" : "NOT RECOVERED");
    for (const AuditViolation& v : r.violation_details)
      std::printf("    !! %s at t=%lld: %s\n", audit_violation_name(v.kind),
                  static_cast<long long>(v.at), v.detail.c_str());
    auto& sr = h.add_series(std::string(system_name(kAllSystems[i])) +
                            " / chaos shards=4");
    sr.attr("system", system_name(kAllSystems[i]))
        .attr("intensity", ci.name)
        .scalar("shards", 4)
        .scalar("violations", static_cast<double>(r.violations()))
        .scalar("fault_events", static_cast<double>(r.fault_events))
        .scalar("acked_writes", static_cast<double>(r.acked_writes()))
        .scalar("committed_writes", static_cast<double>(r.committed_writes()))
        .scalar("redirects", static_cast<double>(r.redirects))
        .scalar("retries", static_cast<double>(r.retries))
        .scalar("client_failed", static_cast<double>(r.client_failed))
        .scalar("recovered", r.recovered() ? 1 : 0)
        .scalar("recovery_ms",
                r.recovered() ? static_cast<double>(r.recovery_ns) / 1e6 : -1)
        .point("before", r.before)
        .point("storm", r.during)
        .point("after", r.after);
    for (std::size_t g = 0; g < r.groups.size(); ++g)
      sr.scalar("violations_group" + std::to_string(g),
                static_cast<double>(r.groups[g].violations));
  }
  violations += static_cast<int>(chaos_violations);

  h.add_scalar("violations_total", static_cast<double>(chaos_violations));
  std::printf("\nscaling: canopus %s, raft %s   chaos violations: %llu\n",
              canopus_ok ? "ok" : "NOT RISING",
              raft_ok ? "ok" : "NOT RISING",
              static_cast<unsigned long long>(chaos_violations));
  const int json_rc = h.finish();
  return json_rc != 0 ? json_rc : (violations > 0 ? 2 : 0);
}
