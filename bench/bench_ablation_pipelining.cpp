// Ablation: pipelining (§7.1) on vs off in the WAN deployment.
//
// Without pipelining a node runs one consensus cycle at a time, so WAN
// throughput is capped at roughly (batch size) / (widest RTT). Pipelining
// keeps a window of cycles in flight (commits stay strictly cycle-ordered)
// and should lift throughput by an order of magnitude at equal latency.
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(argc, argv, "ablation_pipelining",
                   "Ablation: Canopus pipelining on/off (3 DCs x 3 nodes)",
                   "design choice from Sec 7.1");
  const bool quick = h.quick();

  for (bool pipe : {false, true}) {
    TrialConfig tc = h.trial_config();
    tc.system = System::kCanopus;
    tc.wan = true;
    tc.groups = 3;
    tc.per_group = 3;
    tc.warmup = 1'200 * kMillisecond;
    tc.measure = quick ? kSecond : 1'500 * kMillisecond;
    tc.drain = 1'500 * kMillisecond;
    tc.canopus.pipelining = pipe;

    std::printf("\n  pipelining %s\n", pipe ? "ON (5ms/1000-req cycles)" : "OFF");
    std::vector<double> rates{30'000, 100'000, 300'000, 1'000'000};
    if (!quick) rates.push_back(2'000'000);
    const auto sweep = sweep_rates(h.pool(), make_trial(tc), rates);
    for (const auto& m : sweep) {
      std::printf("    offered %8.3f M  ->  %8.3f Mreq/s   median %8.2f ms\n",
                  bench::mreq(m.offered), bench::mreq(m.throughput),
                  bench::ms(m.median));
    }
    auto& sr = h.add_series(pipe ? "pipelining ON" : "pipelining OFF");
    sr.attr("pipelining", pipe ? "on" : "off");
    sr.sweep = sweep;
  }
  std::printf("\nExpected: OFF saturates near batch/RTT; ON tracks offered\n"
              "load to millions of requests/second at similar latency.\n");
  return h.finish();
}
