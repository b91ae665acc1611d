// Figure 6: multi-datacenter throughput and median completion time with
// 3, 5 and 7 datacenters x 3 nodes (Table 1 latencies), 20% writes.
//
// Canopus runs pipelined (a new cycle every 5 ms or 1000 requests, §8.2);
// EPaxos uses the same batch interval, zero interference, latency-probing
// quorums (its fast path already reads the nearest quorum here), thrifty
// off.
//
// Expected shape (paper): Canopus reaches millions of requests/second and
// its throughput GROWS with the number of datacenters (2.6 -> 3.8 -> 4.7 M
// in the paper); EPaxos stays several times lower. Completion times are
// WAN-RTT-bound for both.
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(argc, argv, "fig6",
                   "Figure 6: multi-DC throughput and median completion time",
                   "Fig 6, Sec 8.2");
  const bool quick = h.quick();

  std::vector<double> canopus_max;
  std::vector<double> epaxos_max;
  const std::vector<int> dc_counts = quick ? std::vector<int>{3, 7}
                                           : std::vector<int>{3, 5, 7};

  for (int dcs : dc_counts) {
    std::printf("\n--- %d datacenters x 3 nodes (%d nodes) ---\n", dcs,
                3 * dcs);
    for (bool canopus : {true, false}) {
      TrialConfig tc = h.trial_config();
      tc.system = canopus ? System::kCanopus : System::kEPaxos;
      tc.wan = true;
      tc.groups = dcs;
      tc.per_group = 3;
      tc.client_machines = 5;
      tc.warmup = 1'200 * kMillisecond;  // several WAN RTTs
      tc.measure = quick ? kSecond : 1'500 * kMillisecond;
      tc.drain = 1'500 * kMillisecond;
      tc.canopus.pipelining = true;
      tc.canopus.cycle_interval = 5 * kMillisecond;
      tc.canopus.max_batch = 1'000;
      tc.epaxos.batch_interval = 5 * kMillisecond;

      std::vector<double> rates;
      for (double r = canopus ? 200'000 : 100'000;
           r <= (canopus ? 4'000'000 : 1'200'000); r *= quick ? 2.3 : 1.7)
        rates.push_back(r);
      const auto sweep = sweep_rates(h.pool(), make_trial(tc), rates);

      std::printf("  %s\n", canopus ? "Canopus (pipelined, 5ms/1000-req cycles)"
                                    : "EPaxos (5ms batches, 0%% interference)");
      for (const auto& m : sweep)
        std::printf("    offered %8.3f M  ->  %8.3f Mreq/s   median %8.2f ms\n",
                    bench::mreq(m.offered), bench::mreq(m.throughput),
                    bench::ms(m.median));
      // The paper marks max throughput where latency reaches 1.5x the
      // unloaded (base) latency.
      const Time base = sweep.front().median;
      const double best = bench::max_healthy(sweep, base + base / 2);
      std::printf("    max throughput at <=1.5x base latency: %.3f Mreq/s\n",
                  bench::mreq(best));
      (canopus ? canopus_max : epaxos_max).push_back(best);
      auto& sr = h.add_series(std::string(canopus ? "Canopus" : "EPaxos") +
                              " @ " + std::to_string(dcs) + " DCs");
      sr.attr("system", system_name(tc.system))
          .scalar("datacenters", dcs)
          .scalar("max_at_1p5x_base_latency_req_s", best);
      sr.sweep = sweep;
    }
  }

  std::printf("\nShape vs paper:\n");
  for (std::size_t i = 0; i < dc_counts.size(); ++i) {
    const double ratio =
        epaxos_max[i] > 0 ? canopus_max[i] / epaxos_max[i] : 0.0;
    std::printf("  %d DCs: Canopus/EPaxos = %.1fx (paper: ~4x-13.6x)\n",
                dc_counts[i], ratio);
    h.add_scalar("canopus_over_epaxos_" + std::to_string(dc_counts[i]) + "dc",
                 ratio);
  }
  const double scaling = canopus_max.front() > 0
                             ? canopus_max.back() / canopus_max.front()
                             : 0.0;
  std::printf("  Canopus scaling %d->%d DCs: %.2fx (paper: grows, 2.6->4.7M)\n",
              dc_counts.front(), dc_counts.back(), scaling);
  h.add_scalar("canopus_dc_scaling", scaling);
  return h.finish();
}
