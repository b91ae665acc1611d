// The oracle for the sharded (PDES) kernel's cardinal constraint (ISSUE 6):
// run_parallel_until() must be BIT-IDENTICAL to run_until() — same commit
// fingerprints, same client-visible counts, same NetworkStats, same number
// of events processed — for every system, every seed, every shard count.
//
// Why this holds by construction: every event source is a lane, an event's
// tie-break seq is (lane << 40) | per-lane counter, and a lane's counter is
// only ever advanced by the one shard that owns the lane. The (time, seq)
// total order is therefore a pure function of the simulated causality, not
// of the shard map or of worker interleaving — see DESIGN.md §10. These
// tests are the empirical check of that argument across:
//
//   * the steady-state rack fabric (3 racks, lookahead = the 2 us uplink),
//   * the WAN fabric (4 datacenters, lookahead = tens of ms), and
//   * the chaos storm (faults + audits ride the control lane and fire at
//     coordinator barriers).
//
// Windows are deliberately short: CI runners may have ONE core, where the
// parallel kernel is strictly slower than serial (see EXPERIMENTS.md,
// "PDES scaling") — this file buys correctness coverage, not speed.
#include <gtest/gtest.h>

#include <cstdint>

#include "workload/trial.h"

namespace canopus::workload {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 1337};
constexpr unsigned kThreadCounts[] = {2, 4};

struct Digest {
  std::uint64_t fingerprint = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;

  bool operator==(const Digest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Digest& d) {
  return os << "{fp=" << std::hex << d.fingerprint << std::dec
            << " w=" << d.writes << " r=" << d.reads << " msg=" << d.messages
            << " B=" << d.bytes << " drop=" << d.dropped
            << " ev=" << d.events << "}";
}

/// One fixed-rate steady-state trial at its pinned seed, digested.
Digest run_digest(System sys, std::uint64_t seed, bool wan,
                  unsigned sim_threads) {
  TrialConfig tc;
  tc.system = sys;
  tc.wan = wan;
  tc.groups = wan ? 4 : 3;  // 4 DCs: "4 shards" below is a real 4-way split
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.write_ratio = 0.5;
  tc.seed = seed;
  tc.sim_threads = sim_threads;
  if (wan) {
    tc.warmup = 200 * kMillisecond;  // WAN commit cycles are ~RTT long
    tc.measure = 600 * kMillisecond;
    tc.drain = 200 * kMillisecond;
  } else {
    tc.warmup = 30 * kMillisecond;
    tc.measure = 120 * kMillisecond;
    tc.drain = 50 * kMillisecond;
  }
  const double rate = wan ? 2'000.0 : 20'000.0;

  const TrialReport r = run_trial({tc, rate, derive_seed(tc.seed, 0xf19aULL)});

  Digest d;
  // Fold EVERY node's history into the digest (FNV-style): at the fixed
  // deadline, distant followers legitimately lag the leader by up to a WAN
  // RTT, so nodes need not agree yet — but each node's exact prefix must
  // be identical between the serial and sharded runs.
  for (const TrialReport::NodeDigest& n : r.nodes) {
    d.fingerprint = (d.fingerprint ^ n.fingerprint) * 0x100000001b3ULL;
    d.writes += n.writes;
    d.reads += n.reads;
  }
  d.messages = r.net.messages;
  d.bytes = r.net.bytes;
  d.dropped = r.net.dropped;
  d.events = r.events;
  return d;
}

class PdesDeterminism : public ::testing::TestWithParam<System> {};

TEST_P(PdesDeterminism, RackFabricBitIdenticalAcrossSeedsAndShardCounts) {
  for (std::uint64_t seed : kSeeds) {
    const Digest serial = run_digest(GetParam(), seed, /*wan=*/false, 1);
    ASSERT_GT(serial.writes, 0u) << "trial produced no commits; vacuous";
    for (unsigned t : kThreadCounts) {
      const Digest par = run_digest(GetParam(), seed, /*wan=*/false, t);
      EXPECT_EQ(par, serial) << system_name(GetParam()) << " seed " << seed
                             << " sim_threads " << t;
    }
  }
}

TEST_P(PdesDeterminism, WanFabricBitIdenticalWithWanLookahead) {
  // The tentpole case: shard per datacenter, lookahead = WAN one-way
  // latency (tens of ms), so shards run nearly decoupled — and must still
  // replay the serial order exactly.
  const Digest serial = run_digest(GetParam(), 42, /*wan=*/true, 1);
  ASSERT_GT(serial.writes, 0u) << "trial produced no commits; vacuous";
  for (unsigned t : kThreadCounts) {
    const Digest par = run_digest(GetParam(), 42, /*wan=*/true, t);
    EXPECT_EQ(par, serial) << system_name(GetParam()) << " sim_threads " << t;
  }
}

TEST_P(PdesDeterminism, ChaosStormBitIdenticalThroughControlBarriers) {
  // Faults, heals and the continuous linearizability audit all ride the
  // control lane: under sharded execution they fire one-at-a-time at
  // coordinator barriers with every worker parked. The storm's entire
  // observable outcome must match the serial replay — and stay clean.
  auto storm = [&](unsigned sim_threads) {
    TrialConfig tc;
    tc.system = GetParam();
    tc.groups = 3;
    tc.per_group = 3;
    tc.client_machines = 2;
    tc.write_ratio = 0.5;
    tc.seed = 42;
    tc = fault_tuned(tc);
    tc.sim_threads = sim_threads;

    FaultTiming ft;
    ft.warmup = 100 * kMillisecond;
    ft.fault_at = 200 * kMillisecond;
    ft.heal_at = 500 * kMillisecond;
    ft.end_at = 650 * kMillisecond;
    ft.drain = 200 * kMillisecond;
    tc.warmup = ft.warmup;

    const ChaosIntensity ci{
        "pdes", {.events_per_s = 12.0, .max_down = 2, .max_severed = 2,
                 .min_heal = 80 * kMillisecond,
                 .mean_extra = 100 * kMillisecond}};
    return run_trial(chaos_trial(tc, ci, ft, 15'000.0));
  };

  const TrialReport serial = storm(1);
  const GroupReport& s = serial.groups[0];
  EXPECT_EQ(s.violations, 0u);
  ASSERT_GT(s.audited_max, 0u);
  for (unsigned t : kThreadCounts) {
    const TrialReport par = storm(t);
    const GroupReport& p = par.groups[0];
    EXPECT_EQ(p.violations, 0u) << "sim_threads " << t;
    EXPECT_EQ(par.fault_events, serial.fault_events) << "sim_threads " << t;
    EXPECT_EQ(p.fingerprint, s.fingerprint) << "sim_threads " << t;
    EXPECT_EQ(p.audited_max, s.audited_max) << "sim_threads " << t;
    EXPECT_EQ(p.acked_writes, s.acked_writes) << "sim_threads " << t;
    EXPECT_EQ(p.observed_reads, s.observed_reads) << "sim_threads " << t;
    EXPECT_EQ(p.comparable, s.comparable) << "sim_threads " << t;
    EXPECT_EQ(par.client_failed, serial.client_failed) << "sim_threads " << t;
    EXPECT_EQ(par.recovery_ns, serial.recovery_ns) << "sim_threads " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, PdesDeterminism,
                         ::testing::ValuesIn(kAllSystems),
                         [](const auto& info) {
                           return std::string(system_name(info.param));
                         });

}  // namespace
}  // namespace canopus::workload
