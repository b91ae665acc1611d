// Ablation: write leases (§7.2) — read latency in a WAN deployment.
//
// Plain Canopus delays every read 1-2 consensus cycles to linearize it.
// With write leases, a read of a key with NO active write lease is served
// immediately from committed state; only reads of recently-written keys
// wait. The effect is largest for read-heavy WAN workloads where a cycle
// costs a wide-area RTT.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(
      argc, argv, "ablation_leases",
      "Ablation: write leases (3 DCs x 3 nodes, 1% writes, hot keyspace)",
      "read optimization from Sec 7.2");
  const bool quick = h.quick();

  const std::vector<bool> variants{false, true};
  std::vector<Measurement> results(variants.size());
  h.pool().run_indexed(variants.size(), [&](std::size_t i) {
    TrialConfig tc = h.trial_config();
    tc.system = System::kCanopus;
    tc.wan = true;
    tc.groups = 3;
    tc.per_group = 3;
    tc.write_ratio = 0.01;
    // A small keyspace maximizes write-lease collisions; even so, most
    // reads at 1% writes hit lease-free keys.
    tc.num_keys = 10'000;
    tc.warmup = 1'200 * kMillisecond;
    tc.measure = quick ? kSecond : 1'500 * kMillisecond;
    tc.drain = 1'500 * kMillisecond;
    tc.canopus.pipelining = true;
    tc.canopus.write_leases = variants[i];
    tc.canopus.lease_cycles = 4;
    results[i] = run_trial(tc, 200'000);
  });

  for (std::size_t i = 0; i < variants.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof label, "write leases %s",
                  variants[i] ? "ON" : "OFF");
    bench::print_measurement_row(label, results[i]);
    auto& sr = h.add_series(label);
    sr.attr("write_leases", variants[i] ? "on" : "off");
    sr.sweep = {results[i]};
  }
  std::printf("\nExpected: leases cut median read latency from ~1 WAN cycle\n"
              "to near-zero for uncontended keys while writes and contended\n"
              "reads keep full linearizable ordering.\n");
  return h.finish();
}
