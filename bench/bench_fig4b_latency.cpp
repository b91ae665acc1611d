// Figure 4(b): single-datacenter median request completion time at 70% of
// each system's maximum throughput, while scaling the group size.
//
// Methodology per §8.1: "we report the median request completion time of
// the tested systems when they are operating at 70% of their maximum
// throughput."
//
// Expected shape (paper): Canopus' median is mostly independent of the
// write percentage and significantly shorter than EPaxos with 5 ms
// batching; EPaxos-2ms halves EPaxos' latency at the cost of scalability;
// Canopus' median only marginally increases from 9 to 27 nodes.
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(
      argc, argv, "fig4b",
      "Figure 4(b): single-DC median completion time at 70% of max load",
      "Fig 4(b), Sec 8.1.1");
  const bool quick = h.quick();

  const std::vector<int> per_rack = quick ? std::vector<int>{3, 9}
                                          : std::vector<int>{3, 5, 7, 9};
  const int steps = quick ? 5 : 8;
  const double growth = quick ? 1.9 : 1.5;

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

  std::printf("\n%8s  %-22s  %16s  %14s\n", "nodes", "series",
              "median @70% (ms)", "p99 (ms)");
  for (int pr : per_rack) {
    for (const Series& s : series) {
      TrialConfig tc = h.trial_config();
      tc.groups = 3;
      tc.per_group = pr;
      tc.warmup = 400 * kMillisecond;
      tc.measure = quick ? 700 * kMillisecond : kSecond;
      tc.drain = 400 * kMillisecond;
      tc.system = s.system;
      tc.write_ratio = s.writes;
      if (s.batch > 0) tc.epaxos.batch_interval = s.batch;
      auto trial = make_trial(tc);
      const auto res = find_max_throughput(
          h.pool(), trial, s.system == System::kCanopus ? 400'000 : 200'000,
          growth, 10 * kMillisecond, steps);
      const Measurement at70 = trial(0.7 * res.max.throughput);
      std::printf("%8d  %-22s  %16.3f  %14.3f\n", 3 * pr, s.name,
                  bench::ms(at70.median), bench::ms(at70.p99));
      h.add_series(std::string(s.name) + " @ " + std::to_string(3 * pr) +
                   " nodes")
          .attr("system", system_name(s.system))
          .scalar("nodes", 3 * pr)
          .scalar("write_ratio", s.writes)
          .search(res)
          .point("at_70pct_of_max", at70);
    }
  }
  std::printf(
      "\nShape vs paper: Canopus median < EPaxos-5ms at every size; EPaxos\n"
      "trades completion time for scalability when batching is reduced.\n");
  return h.finish();
}
