// Figure 4(a): single-datacenter maximum throughput while scaling the
// number of nodes (9, 15, 21, 27 = 3 racks x {3,5,7,9}).
//
// Series, as in the paper:
//   Canopus at 20% / 50% / 100% writes
//   EPaxos (0% interference) at 5 ms and 2 ms batching, 20% writes
//
// Expected shape (paper): Canopus read-heavy throughput GROWS with group
// size (reads are local); EPaxos stays flat or declines, and declines
// harder with the smaller batch; at 27 nodes / 20% writes Canopus exceeds
// EPaxos-5ms by >3x.
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(argc, argv, "fig4a",
                   "Figure 4(a): single-DC max throughput vs group size",
                   "Fig 4(a), Sec 8.1.1");
  const bool quick = h.quick();

  const std::vector<int> per_rack = quick ? std::vector<int>{3, 9}
                                          : std::vector<int>{3, 5, 7, 9};
  const int steps = quick ? 5 : 9;
  const double growth = quick ? 1.9 : 1.4;

  auto base = [&](int pr) {
    TrialConfig tc = h.trial_config();
    tc.groups = 3;
    tc.per_group = pr;
    tc.client_machines = 5;
    tc.warmup = 400 * kMillisecond;
    tc.measure = quick ? 700 * kMillisecond : kSecond;
    tc.drain = 400 * kMillisecond;
    return tc;
  };

  std::printf("\n%8s  %-22s  %14s  (median at max, ms)\n", "nodes",
              "series", "max Mreq/s");

  struct Series {
    const char* name;
    System system;
    double writes;
    Time batch;
  };
  const std::vector<Series> series{
      {"Canopus 20%-writes", System::kCanopus, 0.2, 0},
      {"Canopus 50%-writes", System::kCanopus, 0.5, 0},
      {"Canopus 100%-writes", System::kCanopus, 1.0, 0},
      {"EPaxos 5ms-batch", System::kEPaxos, 0.2, 5 * kMillisecond},
      {"EPaxos 2ms-batch", System::kEPaxos, 0.2, 2 * kMillisecond},
  };

  std::vector<std::vector<double>> table;
  for (int pr : per_rack) {
    table.emplace_back();
    for (const Series& s : series) {
      TrialConfig tc = base(pr);
      tc.system = s.system;
      tc.write_ratio = s.writes;
      tc.epaxos.batch_interval = s.batch > 0 ? s.batch : tc.epaxos.batch_interval;
      const double start = s.system == System::kCanopus ? 400'000 : 200'000;
      auto res = find_max_throughput(h.pool(), make_trial(tc), start, growth,
                                     10 * kMillisecond, steps);
      table.back().push_back(res.max.throughput);
      std::printf("%8d  %-22s  %14.3f  (%.2f)\n", 3 * pr, s.name,
                  bench::mreq(res.max.throughput), bench::ms(res.max.median));
      h.add_series(std::string(s.name) + " @ " + std::to_string(3 * pr) +
                   " nodes")
          .attr("system", system_name(s.system))
          .scalar("nodes", 3 * pr)
          .scalar("write_ratio", s.writes)
          .search(res);
    }
  }

  // Paper-shape checks printed as a summary.
  std::printf("\nShape vs paper:\n");
  const auto& biggest = table.back();
  const double vs_epaxos = biggest[3] > 0 ? biggest[0] / biggest[3] : 0.0;
  const double canopus_scaling =
      table.front()[0] > 0 ? table.back()[0] / table.front()[0] : 0.0;
  const double epaxos_scaling =
      table.front()[4] > 0 ? table.back()[4] / table.front()[4] : 0.0;
  std::printf("  Canopus-20%% / EPaxos-5ms at %d nodes: %.1fx (paper: >3x)\n",
              3 * per_rack.back(), vs_epaxos);
  std::printf("  Canopus 20%% scaling %d->%d nodes: %.2fx (paper: grows)\n",
              3 * per_rack.front(), 3 * per_rack.back(), canopus_scaling);
  std::printf("  EPaxos 2ms scaling %d->%d nodes: %.2fx (paper: shrinks)\n",
              3 * per_rack.front(), 3 * per_rack.back(), epaxos_scaling);
  h.add_scalar("canopus20_over_epaxos5ms_at_max_nodes", vs_epaxos);
  h.add_scalar("canopus20_scaling", canopus_scaling);
  h.add_scalar("epaxos2ms_scaling", epaxos_scaling);
  return h.finish();
}
