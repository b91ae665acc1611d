// Figure 5: ZKCanopus vs ZooKeeper — throughput vs median completion time
// at 9 and 27 nodes (20% writes, single datacenter, one znode's worth of
// hot keys served from the same KV service layer).
//
// ZooKeeper runs Zab with a leader + 5 followers; all remaining nodes are
// observers (§8.1.2). ZKCanopus is the identical KV service with the
// broadcast layer swapped for Canopus, where every node participates.
// Standalone Raft (not in the paper) rides along as a third curve: the
// same single-leader topology as ZooKeeper minus the znode pipeline cost,
// isolating how much of ZooKeeper's collapse is the coordinator pattern
// itself versus its per-write processing.
//
// Expected shape (paper): ZooKeeper's curve collapses at a small fraction
// of ZKCanopus' throughput (the centralized coordinator saturates); at 27
// nodes the gap for read-heavy workloads exceeds an order of magnitude
// ("increases the throughput of ZooKeeper by more than 16x"). When
// unloaded, ZKCanopus' completion time is slightly higher (tree overlay
// round trips vs direct broadcast).
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(
      argc, argv, "fig5",
      "Figure 5: ZKCanopus vs ZooKeeper (throughput vs median latency)",
      "Fig 5, Sec 8.1.2");
  const bool quick = h.quick();

  struct Entry {
    System system;
    const char* label;
    double start_rate;
    double max_rate;
  };
  // Raft rides along as the third coordination-service baseline: a single
  // cluster-wide leader like ZooKeeper, but without the znode pipeline
  // cost — it sits between the two curves.
  const std::vector<Entry> entries{
      {System::kZab, "ZooKeeper (leader + 5 followers + observers)", 20'000,
       800'000},
      {System::kRaft, "Raft (single cluster-wide group)", 20'000, 1'600'000},
      {System::kCanopus, "ZKCanopus (all nodes in consensus)", 100'000,
       4'000'000},
  };
  for (int pr : {3, 9}) {
    std::printf("\n--- %d nodes ---\n", 3 * pr);
    for (const Entry& e : entries) {
      TrialConfig tc = h.trial_config();
      tc.system = e.system;
      tc.groups = 3;
      tc.per_group = pr;
      tc.warmup = 400 * kMillisecond;
      tc.measure = quick ? 600 * kMillisecond : kSecond;
      tc.drain = 400 * kMillisecond;
      tc.zab.followers = 5;

      std::vector<double> rates;
      for (double r = e.start_rate; r <= e.max_rate; r *= quick ? 2.4 : 1.7)
        rates.push_back(r);
      const auto sweep = sweep_rates(h.pool(), make_trial(tc), rates);

      std::printf("  %s\n", e.label);
      for (const auto& m : sweep)
        std::printf("    offered %8.3f M  ->  %8.3f Mreq/s   median %8.3f ms\n",
                    bench::mreq(m.offered), bench::mreq(m.throughput),
                    bench::ms(m.median));
      // Healthy = timely AND complete: a coordinator that still answers
      // reads while its write pipeline starves must not score the reads
      // (the 20% write share has to finish too).
      const double best = bench::max_healthy(sweep, 10 * kMillisecond);
      std::printf("    max healthy throughput: %.3f Mreq/s\n",
                  bench::mreq(best));
      const char* series_base = e.system == System::kCanopus
                                    ? "ZKCanopus"
                                    : system_name(e.system);
      auto& sr = h.add_series(std::string(series_base) + " @ " +
                              std::to_string(3 * pr) + " nodes");
      sr.attr("system", system_name(tc.system))
          .scalar("nodes", 3 * pr)
          .scalar("max_healthy_req_s", best);
      sr.sweep = sweep;
    }
  }
  return h.finish();
}
