// Ablation: super-leaf representative count k and redundant fetching (§4.5).
//
// More representatives spread the fetch/rebroadcast load; redundant
// fetching (Figure 2 shows 2x) halves the odds of waiting out a fetch
// timeout when an emulator died, at the cost of duplicate WAN transfers
// and duplicate intra-rack rebroadcast work.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(
      argc, argv, "ablation_representatives",
      "Ablation: representatives k and redundant fetch (27 nodes, 20% writes)",
      "design choice from Sec 4.5");
  const bool quick = h.quick();

  struct Variant {
    int k;
    int redundancy;
  };
  const std::vector<Variant> variants{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 3}};

  std::vector<Measurement> results(variants.size());
  h.pool().run_indexed(variants.size(), [&](std::size_t i) {
    TrialConfig tc = h.trial_config();
    tc.system = System::kCanopus;
    tc.groups = 3;
    tc.per_group = 9;
    tc.warmup = 400 * kMillisecond;
    tc.measure = quick ? 600 * kMillisecond : kSecond;
    tc.drain = 400 * kMillisecond;
    tc.canopus.representatives = variants[i].k;
    tc.canopus.redundant_fetch = variants[i].redundancy;
    results[i] = run_trial(tc, 1'200'000);
  });

  std::printf("\n  %-28s  %14s  %12s\n", "variant", "Mreq/s @ fixed", "median ms");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    char label[64];
    std::snprintf(label, sizeof label, "k=%d redundancy=%d", variants[i].k,
                  variants[i].redundancy);
    bench::print_measurement_row(label, results[i]);
    auto& sr = h.add_series(label);
    sr.scalar("representatives", variants[i].k)
        .scalar("redundant_fetch", variants[i].redundancy);
    sr.sweep = {results[i]};
  }
  std::printf("\nExpected: redundancy > 1 costs duplicate rebroadcast work\n"
              "(slightly higher latency under load); k mainly matters for\n"
              "fault tolerance, not steady-state throughput.\n");
  return h.finish();
}
