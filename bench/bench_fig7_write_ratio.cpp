// Figure 7: performance with different write ratios — 9 nodes across 3
// datacenters; Canopus at 1%, 20% and 50% writes vs EPaxos (whose curves
// are write-ratio-independent, shown at 20%).
//
// Expected shape (paper): Canopus throughput rises as the workload gets
// more read-heavy (3.6 M at 1% vs 2.65 M at 20%); even at 50% writes it
// stays >= 2.5x above EPaxos.
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(argc, argv, "fig7",
                   "Figure 7: write-ratio sweep, 3 DCs x 3 nodes",
                   "Fig 7, Sec 8.2.1");
  const bool quick = h.quick();

  struct Series {
    const char* name;
    System system;
    double writes;
  };
  const std::vector<Series> series{
      {"Canopus 1%-writes", System::kCanopus, 0.01},
      {"Canopus 20%-writes", System::kCanopus, 0.2},
      {"Canopus 50%-writes", System::kCanopus, 0.5},
      {"EPaxos 20%-writes", System::kEPaxos, 0.2},
  };

  double canopus50 = 0, epaxos20 = 0;
  for (const Series& s : series) {
    TrialConfig tc = h.trial_config();
    tc.system = s.system;
    tc.wan = true;
    tc.groups = 3;
    tc.per_group = 3;
    tc.write_ratio = s.writes;
    tc.warmup = 1'200 * kMillisecond;
    tc.measure = quick ? kSecond : 1'500 * kMillisecond;
    tc.drain = 1'500 * kMillisecond;
    tc.canopus.pipelining = true;
    tc.epaxos.batch_interval = 5 * kMillisecond;

    std::vector<double> rates;
    for (double r = 100'000; r <= 4'000'000; r *= quick ? 2.3 : 1.7)
      rates.push_back(r);
    const auto sweep = sweep_rates(h.pool(), make_trial(tc), rates);

    std::printf("\n  %s\n", s.name);
    for (const auto& m : sweep)
      std::printf("    offered %8.3f M  ->  %8.3f Mreq/s   median %8.2f ms\n",
                  bench::mreq(m.offered), bench::mreq(m.throughput),
                  bench::ms(m.median));
    const Time base = sweep.front().median;
    const double best = bench::max_healthy(sweep, base + base / 2);
    std::printf("    max throughput at <=1.5x base latency: %.3f Mreq/s\n",
                bench::mreq(best));
    if (s.system == System::kCanopus && s.writes == 0.5) canopus50 = best;
    if (s.system == System::kEPaxos) epaxos20 = best;
    auto& sr = h.add_series(s.name);
    sr.attr("system", system_name(s.system))
        .scalar("write_ratio", s.writes)
        .scalar("max_at_1p5x_base_latency_req_s", best);
    sr.sweep = sweep;
  }
  const double ratio = epaxos20 > 0 ? canopus50 / epaxos20 : 0.0;
  std::printf("\nShape vs paper: Canopus-50%% / EPaxos = %.1fx (paper: ~2.5x)\n",
              ratio);
  h.add_scalar("canopus50_over_epaxos20", ratio);
  return h.finish();
}
