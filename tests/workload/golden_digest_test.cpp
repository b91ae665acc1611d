// Golden-digest determinism regression: for a fixed seed and workload, every
// system's commit digest, read count, network statistics, and event count
// are pinned to the exact values produced before the typed-event-plane
// rewrite (ISSUE 4). Any change to these constants means the simulation's
// observable behaviour changed — which a pure performance refactor of the
// substrate must never do. If a FUTURE protocol/workload change legitimately
// alters behaviour, regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include <cstdint>

#include "workload/trial.h"

namespace canopus::workload {
namespace {

struct Golden {
  System system;
  std::uint64_t fingerprint;
  std::uint64_t writes;
  std::uint64_t reads;
  std::uint64_t messages;
  std::uint64_t bytes;
  std::uint64_t events;
};

// Captured with the exact setup below. Re-pinned for the sharded-kernel
// lane-sequence discipline (ISSUE 6): per-lane tie-break order and per-node
// protocol RNG streams legitimately change the commit interleaving — note
// that write/read/message/byte/event COUNTS are identical to the previous
// pins; only the fingerprints (commit order) moved.
constexpr Golden kGolden[] = {
    {System::kCanopus, 0xde8dddc1563f3495ULL, 3449, 379, 283070, 23604000,
     1191785},
    {System::kRaft, 0x724ce4fdb652aa85ULL, 3449, 379, 24525, 2769768, 127983},
    {System::kZab, 0x888cd687c8edd219ULL, 3449, 379, 21091, 2193240, 106467},
    {System::kEPaxos, 0xa229fc217f2eb3a2ULL, 3449, 379, 22406, 3751440,
     122348},
};

class GoldenDigest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenDigest, RunMatchesRecordedTrace) {
  const Golden& g = GetParam();
  TrialConfig tc;
  tc.system = g.system;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.write_ratio = 0.5;
  tc.warmup = 50 * kMillisecond;
  tc.measure = 300 * kMillisecond;
  tc.drain = 100 * kMillisecond;
  tc.seed = 42;

  const TrialReport r =
      run_trial({tc, 20'000.0, derive_seed(tc.seed, 0xf19aULL)});
  const char* name = system_name(g.system);

  EXPECT_EQ(r.nodes[0].fingerprint, g.fingerprint) << name;
  EXPECT_EQ(r.nodes[0].writes, g.writes);
  EXPECT_EQ(r.nodes[0].reads, g.reads);
  EXPECT_EQ(r.net.messages, g.messages);
  EXPECT_EQ(r.net.bytes, g.bytes);
  EXPECT_EQ(r.net.dropped, 0u);
  EXPECT_EQ(r.events, g.events);

  // Agreement: every server holds the same committed history.
  for (std::size_t i = 1; i < r.nodes.size(); ++i) {
    EXPECT_EQ(r.nodes[i].fingerprint, g.fingerprint) << name << " node " << i;
    EXPECT_EQ(r.nodes[i].writes, g.writes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSystems, GoldenDigest,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return std::string(system_name(info.param.system));
                         });

// --------------------------------------------------------------------------
// Chaos-storm goldens: one fixed-seed storm per system, pinning the storm
// shape, the surviving commit history, and — above all — that the
// continuously-running invariant auditor reports ZERO violations. Any
// change to these constants means protocol behaviour under faults changed;
// regenerate them deliberately (the failure output prints the actual
// values) and say so in the commit.
// --------------------------------------------------------------------------

struct ChaosGolden {
  System system;
  std::uint64_t fault_events;
  std::uint64_t fingerprint;
  std::uint64_t committed;
  std::uint64_t acked;
  std::uint64_t comparable;
};

// Captured with the exact setup below. Canopus: 3 of its 9 pnodes crash
// during the storm and their sponsored rejoins don't complete before the
// run ends (the re-admission grace outlasts the window), so 6 nodes remain
// comparable and some tail acks are never delivered; the quorum systems
// recover everyone.
constexpr ChaosGolden kChaosGolden[] = {
    {System::kCanopus, 8, 0x87de66df97114f0cULL, 4625, 4472, 6},
    {System::kRaft, 8, 0xdcb573c33108525eULL, 7000, 7000, 9},
    {System::kZab, 8, 0xe5f8bb1970db615fULL, 7003, 7003, 9},
    {System::kEPaxos, 8, 0x7354716838e20d9fULL, 7452, 7452, 9},
};

class ChaosGoldenDigest : public ::testing::TestWithParam<ChaosGolden> {};

TEST_P(ChaosGoldenDigest, StormMatchesRecordedTraceAndStaysClean) {
  const ChaosGolden& g = GetParam();
  TrialConfig tc;
  tc.system = g.system;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.write_ratio = 0.5;
  tc.seed = 42;
  tc = fault_tuned(tc);

  FaultTiming ft;
  ft.warmup = 100 * kMillisecond;
  ft.fault_at = 250 * kMillisecond;
  ft.heal_at = 850 * kMillisecond;
  ft.end_at = 1'100 * kMillisecond;
  ft.drain = 400 * kMillisecond;
  tc.warmup = ft.warmup;

  const ChaosIntensity ci{
      "golden", {.events_per_s = 12.0, .max_down = 2, .max_severed = 2,
                 .min_heal = 80 * kMillisecond,
                 .mean_extra = 100 * kMillisecond}};
  const TrialReport r = run_trial(chaos_trial(tc, ci, ft, 15'000.0));
  const GroupReport& fleet = r.groups[0];
  const char* name = system_name(g.system);

  // The invariant audit is the point: a storm must never violate safety.
  EXPECT_EQ(fleet.violations, 0u) << name;
  for (const AuditViolation& v : r.violation_details)
    ADD_FAILURE() << name << ": " << audit_violation_name(v.kind) << ": "
                  << v.detail;

  // Determinism pins: the storm and its surviving history replay exactly.
  EXPECT_EQ(r.fault_events, g.fault_events) << name;
  EXPECT_EQ(fleet.fingerprint, g.fingerprint) << name;
  EXPECT_EQ(fleet.audited_max, g.committed) << name;
  EXPECT_EQ(fleet.acked_writes, g.acked) << name;
  EXPECT_EQ(fleet.comparable, g.comparable) << name;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ChaosGoldenDigest,
                         ::testing::ValuesIn(kChaosGolden),
                         [](const auto& info) {
                           return std::string(system_name(info.param.system));
                         });

// --------------------------------------------------------------------------
// Gray-storm goldens (ISSUE 9): the gray-mix intensity draws all five gray
// fault kinds (cpu-slow, flapping, duplication, reordering, clock skew) in
// one storm. Pins the storm shape and surviving history at seed 42, requires
// a clean audit, and replays the SAME trial under the parallel event kernel
// (sim_threads = 2) demanding bit-identical results — gray fault state must
// stay deterministic under sharded execution.
// --------------------------------------------------------------------------

struct GrayGolden {
  System system;
  std::uint64_t fault_events;
  std::uint64_t fingerprint;
  std::uint64_t committed;
  std::uint64_t acked;
  std::uint64_t comparable;
};

// Captured with the exact setup below. The seed-42 storm draws all seven
// kinds (crash, sever, cpu-slow, flap, dup, reorder, skew); the one crashed
// Canopus pnode's sponsored rejoin does not finish inside this short storm
// window (the re-admission grace outlasts it), so 8 nodes stay comparable
// and two tail acks are lost. Canopus fingerprint re-pinned for the rejoin
// path (ISSUE 10): membership bookkeeping in the cycle starter legitimately
// shifts the commit interleaving; all counts are unchanged.
constexpr GrayGolden kGrayGolden[] = {
    {System::kCanopus, 12, 0xdffdd8ca074726daULL, 7656, 7654, 8},
    {System::kRaft, 12, 0x953287f0c5147056ULL, 7080, 7080, 9},
    {System::kZab, 12, 0x2aa353e92ab93e6eULL, 7079, 7079, 9},
    {System::kEPaxos, 12, 0xd0dcbda5b3f395a3ULL, 8068, 8068, 9},
};

class GrayChaosGoldenDigest : public ::testing::TestWithParam<GrayGolden> {};

TEST_P(GrayChaosGoldenDigest, GrayMixStormPinsAndReplaysAcrossSimThreads) {
  const GrayGolden& g = GetParam();
  TrialConfig tc;
  tc.system = g.system;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.write_ratio = 0.5;
  tc.seed = 42;
  tc = fault_tuned(tc);

  FaultTiming ft;
  ft.warmup = 100 * kMillisecond;
  ft.fault_at = 250 * kMillisecond;
  ft.heal_at = 850 * kMillisecond;
  ft.end_at = 1'100 * kMillisecond;
  ft.drain = 400 * kMillisecond;
  tc.warmup = ft.warmup;

  // gray-mix densified so the seed-42 storm draws every kind in the
  // palette (at the bench rate of 12/s this seed happens to draw only
  // reorder and dup — too thin for a full-palette pin).
  ChaosIntensity mix = gray_intensities().back();
  ASSERT_EQ(mix.name, "gray-mix");
  mix.storm.events_per_s = 40.0;

  const TrialReport r = run_trial(chaos_trial(tc, mix, ft, 15'000.0));
  const GroupReport& fleet = r.groups[0];
  const char* name = system_name(g.system);

  EXPECT_EQ(fleet.violations, 0u) << name;
  for (const AuditViolation& v : r.violation_details)
    ADD_FAILURE() << name << ": " << audit_violation_name(v.kind) << ": "
                  << v.detail;

  EXPECT_EQ(r.fault_events, g.fault_events) << name;
  EXPECT_EQ(fleet.fingerprint, g.fingerprint) << name;
  EXPECT_EQ(fleet.audited_max, g.committed) << name;
  EXPECT_EQ(fleet.acked_writes, g.acked) << name;
  EXPECT_EQ(fleet.comparable, g.comparable) << name;

  // Same trial under the sharded parallel kernel: every observable must be
  // bit-identical to the serial run.
  TrialConfig ptc = tc;
  ptc.sim_threads = 2;
  const TrialReport p = run_trial(chaos_trial(ptc, mix, ft, 15'000.0));
  const GroupReport& pfleet = p.groups[0];
  EXPECT_EQ(pfleet.violations, 0u) << name;
  EXPECT_EQ(p.fault_events, r.fault_events) << name;
  EXPECT_EQ(pfleet.fingerprint, fleet.fingerprint) << name;
  EXPECT_EQ(pfleet.audited_max, fleet.audited_max) << name;
  EXPECT_EQ(pfleet.acked_writes, fleet.acked_writes) << name;
  EXPECT_EQ(pfleet.comparable, fleet.comparable) << name;
  EXPECT_EQ(pfleet.audited_min, fleet.audited_min) << name;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, GrayChaosGoldenDigest,
                         ::testing::ValuesIn(kGrayGolden),
                         [](const auto& info) {
                           return std::string(system_name(info.param.system));
                         });

// --------------------------------------------------------------------------
// Long-downtime goldens (ISSUE 10): the snapshot/state-transfer scenario —
// one node dark past every retained-history window, back by state transfer.
// Pins the surviving history, the snapshot count, and the retention bound
// at seed 42, then replays the SAME trial under the parallel event kernel
// (sim_threads = 2) demanding bit-identical results: the install path must
// stay deterministic under sharded execution.
// --------------------------------------------------------------------------

struct DowntimeGolden {
  System system;
  std::uint64_t fingerprint;
  std::uint64_t committed;
  std::uint64_t snapshots;
  std::uint64_t comparable;
};

// Captured with the exact setup below. Every system installs at least one
// snapshot: Raft ships InstallSnapshot past the compacted base, Zab answers
// the stale sync with a snapshot, EPaxos escalates the beyond-window gap,
// and the Canopus pnode is sponsored back with a full state transfer.
constexpr DowntimeGolden kDowntimeGolden[] = {
    {System::kCanopus, 0x8f174f59010f9f81ULL, 4156, 1, 6},
    {System::kRaft, 0x0619dcd0c335ad2dULL, 4156, 1, 6},
    {System::kZab, 0xf5fee0b56332117dULL, 4156, 1, 6},
    {System::kEPaxos, 0x1216167caaa27ddcULL, 4156, 1, 6},
};

class DowntimeGoldenDigest : public ::testing::TestWithParam<DowntimeGolden> {
};

TEST_P(DowntimeGoldenDigest, SnapshotRejoinPinsAndReplaysAcrossSimThreads) {
  const DowntimeGolden& g = GetParam();
  TrialConfig tc;
  tc.system = g.system;
  tc.groups = 2;
  tc.per_group = 3;
  tc.client_machines = 1;
  tc.seed = 42;
  tc = fault_tuned(tc);

  const FaultTiming ft = long_downtime_timing();
  tc.warmup = ft.warmup;
  const FaultScenario sc = long_downtime_scenario(tc.per_group, ft);
  const GroupReport r =
      run_trial(scenario_trial(tc, sc, ft, 5'000.0)).groups[0];
  const char* name = system_name(g.system);

  EXPECT_TRUE(r.agree) << name;
  EXPECT_TRUE(r.retention_ok) << name << " retained " << r.max_retained
                              << " > bound " << retained_log_bound(tc);
  EXPECT_EQ(r.fingerprint, g.fingerprint) << name;
  EXPECT_EQ(r.max_count, g.committed) << name;
  EXPECT_EQ(r.snapshots, g.snapshots) << name;
  EXPECT_EQ(r.comparable, g.comparable) << name;

  // Same trial under the sharded parallel kernel: bit-identical.
  TrialConfig ptc = tc;
  ptc.sim_threads = 2;
  const GroupReport p =
      run_trial(scenario_trial(ptc, sc, ft, 5'000.0)).groups[0];
  EXPECT_EQ(p.fingerprint, r.fingerprint) << name;
  EXPECT_EQ(p.max_count, r.max_count) << name;
  EXPECT_EQ(p.snapshots, r.snapshots) << name;
  EXPECT_EQ(p.comparable, r.comparable) << name;
  EXPECT_EQ(p.max_retained, r.max_retained) << name;
}

INSTANTIATE_TEST_SUITE_P(AllSystems, DowntimeGoldenDigest,
                         ::testing::ValuesIn(kDowntimeGolden),
                         [](const auto& info) {
                           return std::string(system_name(info.param.system));
                         });

}  // namespace
}  // namespace canopus::workload
