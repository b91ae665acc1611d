// PDES scaling: wall-clock speedup of the sharded simulation kernel
// (ISSUE 6) on (a) the Figure 6 multi-DC topology and (b) a 1000-node
// stress topology, at 1 / 2 / 4 shard worker threads.
//
// Every parallel run is diffed against its serial twin — fingerprint,
// commit counts, NetworkStats, events processed — and the bench EXITS
// NONZERO on any mismatch: bit-identity is the kernel's cardinal
// constraint, speedup is merely the payoff. Speedup is reported honestly
// for the machine at hand (the "hardware_threads" scalar records how many
// cores were available): on a single-core runner the conservative kernel's
// null-message rounds make parallel runs SLOWER than serial, which is
// expected and documented in EXPERIMENTS.md ("PDES scaling").
//
// This bench drives sim_threads itself (that is its subject); the
// harness-level --sim-threads flag is ignored here.
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

namespace {

using namespace canopus;
using namespace canopus::workload;

struct RunResult {
  TrialReport report;
  double wall_s = 0;

  /// Every node's history, the network counters and the event count.
  bool same_trace(const RunResult& o) const {
    const TrialReport &a = report, &b = o.report;
    return a.nodes == b.nodes && a.net.messages == b.net.messages &&
           a.net.bytes == b.net.bytes && a.events == b.events;
  }
};

/// One fixed-rate trial at its pinned seed, timed.
RunResult run_one(TrialConfig tc, unsigned sim_threads, double rate) {
  tc.sim_threads = sim_threads;
  const auto t0 = std::chrono::steady_clock::now();
  RunResult r;
  r.report = run_trial({tc, rate, derive_seed(tc.seed, 0xbde5ULL)});
  r.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  return r;
}

/// Runs one topology across shard counts, prints the scaling table, emits
/// one JSON series per point, and returns whether every parallel run
/// matched the serial trace.
bool scale_one(canopus::bench::Harness& h, const std::string& label,
               const TrialConfig& tc, double rate,
               const std::vector<unsigned>& threads, double* speedup_at_max,
               double* serial_wall) {
  std::printf("\n--- %s ---\n", label.c_str());
  std::printf("%12s  %10s  %10s  %10s  %s\n", "sim-threads", "wall (s)",
              "speedup", "Mevents", "trace");

  bool all_identical = true;
  RunResult serial;
  for (unsigned t : threads) {
    const RunResult r = run_one(tc, t, rate);
    const bool first = t == threads.front();
    if (first) serial = r;
    const bool identical = r.same_trace(serial);
    all_identical = all_identical && identical;
    const double speedup = r.wall_s > 0 ? serial.wall_s / r.wall_s : 0.0;
    std::printf("%12u  %10.2f  %9.2fx  %10.2f  %s\n", t, r.wall_s, speedup,
                static_cast<double>(r.report.events) / 1e6,
                first ? "(serial baseline)"
                      : (identical ? "identical" : "MISMATCH"));
    h.add_series(label + " @ " + std::to_string(t) + " sim-threads")
        .attr("topology", label)
        .scalar("sim_threads", t)
        .scalar("wall_seconds", r.wall_s)
        .scalar("speedup_vs_serial", speedup)
        .scalar("events", static_cast<double>(r.report.events))
        .scalar("committed_writes",
                static_cast<double>(r.report.nodes[0].writes))
        .scalar("identical_to_serial", identical ? 1 : 0);
    if (t == threads.back()) *speedup_at_max = speedup;
  }
  *serial_wall = serial.wall_s;
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h(argc, argv, "pdes",
                   "PDES scaling: sharded event kernel, serial-identical",
                   "ISSUE 6; DESIGN.md Sec 10");
  const bool quick = h.quick();
  const std::vector<unsigned> threads{1, 2, 4};

  bool ok = true;
  double speedup = 0, wall = 0;

  // (a) Figure 6 multi-DC: one shard per datacenter, WAN one-way latencies
  // (tens of ms) as lookahead — the paper's own deployment shape and the
  // kernel's best case: shards run nearly decoupled between barriers.
  {
    TrialConfig tc;
    tc.system = System::kCanopus;
    tc.wan = true;
    tc.groups = 7;  // the full Table 1 site set
    tc.per_group = 3;
    tc.client_machines = 5;
    tc.warmup = 600 * kMillisecond;
    tc.measure = quick ? kSecond : 2 * kSecond;
    tc.drain = 600 * kMillisecond;
    tc.canopus.pipelining = true;
    tc.canopus.cycle_interval = 5 * kMillisecond;
    tc.canopus.max_batch = 1'000;
    ok = scale_one(h, "fig6 7-DC Canopus", tc, 400'000.0, threads, &speedup,
                   &wall) &&
         ok;
    h.add_scalar("fig6_speedup_at_4_threads", speedup);
    h.add_scalar("fig6_serial_wall_seconds", wall);
  }

  // (b) 1000-node stress: 20 racks x (40 servers + 10 client machines) in
  // one DC — the ROADMAP north-star scale. Lookahead is the 2 us
  // aggregation uplink, so this is the kernel's HARD case: fine-grained
  // synchronization, single-DC latencies.
  {
    TrialConfig tc;
    tc.system = System::kCanopus;
    tc.groups = 20;
    tc.per_group = 40;
    tc.client_machines = 10;
    tc.warmup = 20 * kMillisecond;
    tc.measure = quick ? 25 * kMillisecond : 60 * kMillisecond;
    tc.drain = 20 * kMillisecond;
    tc.canopus.pipelining = true;
    tc.canopus.cycle_interval = 5 * kMillisecond;
    tc.canopus.max_batch = 1'000;
    ok = scale_one(h, "1000-node stress Canopus", tc, 100'000.0, threads,
                   &speedup, &wall) &&
         ok;
    h.add_scalar("stress_speedup_at_4_threads", speedup);
    h.add_scalar("stress_serial_wall_seconds", wall);
    std::printf("\n1000-node stress serial wall: %.2f s (interactive target: "
                "< 10 s)\n",
                wall);
  }

  h.add_scalar("hardware_threads",
               static_cast<double>(std::thread::hardware_concurrency()));
  h.add_scalar("all_identical_to_serial", ok ? 1 : 0);
  if (!ok)
    std::printf("\nFAIL: a sharded run diverged from its serial twin\n");
  const int rc = h.finish();
  return ok ? rc : 1;
}
