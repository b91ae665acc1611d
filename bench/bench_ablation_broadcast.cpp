// Ablation: super-leaf broadcast substrate (§4.3) — Raft-variant software
// broadcast (the paper's prototype) vs hardware-assisted atomic broadcast
// in the ToR switch.
//
// Expected: the hardware substrate cuts intra-super-leaf commit to a single
// switch transit (no acks, no commit notifications, no quorum waits),
// lowering request completion time and shaving per-node message-processing
// CPU; the effect on single-DC throughput is modest because Canopus is
// read/CPU-bound, exactly why the paper treats the substrate as pluggable.
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::workload;
  bench::Harness h(
      argc, argv, "ablation_broadcast",
      "Ablation: broadcast substrate (27 nodes, 20% writes, 0.8 Mreq/s)",
      "Sec 4.3: Raft variant vs hardware-assisted atomic broadcast");
  const bool quick = h.quick();

  const std::vector<core::BroadcastKind> kinds{core::BroadcastKind::kRaft,
                                               core::BroadcastKind::kSwitch};
  std::vector<Measurement> results(kinds.size());
  h.pool().run_indexed(kinds.size(), [&](std::size_t i) {
    TrialConfig tc = h.trial_config();
    tc.system = System::kCanopus;
    tc.groups = 3;
    tc.per_group = 9;
    tc.warmup = 400 * kMillisecond;
    tc.measure = quick ? 600 * kMillisecond : kSecond;
    tc.drain = 400 * kMillisecond;
    tc.canopus.broadcast = kinds[i];
    results[i] = run_trial(tc, 800'000);
  });

  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const char* label = kinds[i] == core::BroadcastKind::kRaft
                            ? "Raft-based reliable broadcast"
                            : "switch-assisted atomic broadcast";
    bench::print_measurement_row(label, results[i]);
    auto& sr = h.add_series(label);
    sr.attr("substrate",
            kinds[i] == core::BroadcastKind::kRaft ? "raft" : "switch");
    sr.sweep = {results[i]};
  }
  return h.finish();
}
