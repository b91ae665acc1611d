// Fault scenarios end to end: every system runs the standard suite through
// ConsensusService under open-loop load; live nodes must agree in every
// scenario, and Canopus must stall-not-corrupt on super-leaf majority loss.
#include "workload/fault_scenario.h"

#include <gtest/gtest.h>

#include "testutil/schedule_digest.h"
#include "workload/trial.h"

namespace canopus::workload {
namespace {

FaultTiming short_timing() {
  FaultTiming ft;
  ft.warmup = 200 * kMillisecond;
  ft.fault_at = 600 * kMillisecond;
  ft.heal_at = 1'300 * kMillisecond;
  ft.end_at = 2'000 * kMillisecond;
  ft.drain = 500 * kMillisecond;
  return ft;
}

TrialConfig small_config(System sys) {
  TrialConfig tc;
  tc.system = sys;
  tc.groups = 2;
  tc.per_group = 3;
  tc.client_machines = 1;
  tc.warmup = short_timing().warmup;
  return fault_tuned(tc);
}

TrialReport run_scenario(const TrialConfig& tc, const FaultScenario& sc,
                         const FaultTiming& ft) {
  return run_trial(scenario_trial(tc, sc, ft, 5'000));
}

TEST(StandardScenarios, SuiteShape) {
  const FaultTiming ft = short_timing();
  const auto suite = standard_scenarios(3, 3, ft);
  ASSERT_EQ(suite.size(), 5u);
  // A 3x3 fleet whose NodeIds are not the server indices, so the checks
  // below also cover the index -> NodeId lowering.
  std::vector<NodeId> servers;
  for (NodeId i = 0; i < 9; ++i) servers.push_back(100 + i);
  int majority_loss = 0;
  std::uint64_t digest = testutil::kScheduleDigestSeed;
  for (const FaultScenario& sc : suite) {
    EXPECT_FALSE(sc.name.empty());
    const simnet::FaultSchedule sched = make_schedule(sc, servers);
    EXPECT_FALSE(sched.empty());
    for (const simnet::FaultEvent& ev : sched.events()) {
      EXPECT_GE(ev.at, ft.fault_at);
      EXPECT_LE(ev.at, ft.heal_at);
      EXPECT_GE(ev.a, 100u);
      EXPECT_LT(ev.a, 109u);
    }
    if (sc.majority_loss) ++majority_loss;
    digest = testutil::schedule_digest(sched, digest);
  }
  EXPECT_EQ(majority_loss, 1);
  // The one-way partition severs every group-0 -> other-group pair.
  const auto& part = suite[3];
  EXPECT_EQ(part.name, "partition_asym");
  EXPECT_EQ(make_schedule(part, servers).events().size(), 2u * 3u * 6u);

  // Every lowered schedule of the library, pinned bit for bit: the suite
  // above, long_downtime, a DC outage and a group-scoped scenario.
  digest = testutil::schedule_digest(
      make_schedule(long_downtime_scenario(3, long_downtime_timing()),
                    servers),
      digest);
  digest = testutil::schedule_digest(
      make_schedule(dc_outage_scenario(1, 3, ft), servers), digest);
  const FaultScenario scoped = scope_to_group(suite[1], 2, 3);
  EXPECT_EQ(scoped.name, "leader_crash@group2");
  digest = testutil::schedule_digest(make_schedule(scoped, servers), digest);
  EXPECT_EQ(digest, 0x904d2ca113f3b00eULL);
}

TEST(PhasedRecorder, RoutesByArrivalPhase) {
  const FaultTiming ft = short_timing();
  PhasedRecorder rec(ft);
  rec.complete(ft.fault_at, ft.warmup + 1);          // before-phase arrival
  rec.complete(ft.heal_at, ft.fault_at + 1);         // during
  rec.complete(ft.end_at, ft.heal_at + 1);           // after
  rec.complete(ft.end_at, ft.warmup - 1);            // pre-warmup: nowhere
  EXPECT_EQ(rec.before().completed(), 1u);
  EXPECT_EQ(rec.during().completed(), 1u);
  EXPECT_EQ(rec.after().completed(), 1u);
}

class ScenarioSuiteTest : public ::testing::TestWithParam<System> {};

TEST_P(ScenarioSuiteTest, AllScenariosSafeAndAvailableBeforeFault) {
  const FaultTiming ft = short_timing();
  const TrialConfig tc = small_config(GetParam());
  const auto suite = standard_scenarios(tc.groups, tc.per_group, ft);
  const char* name = system_name(GetParam());
  for (const FaultScenario& sc : suite) {
    const TrialReport r = run_scenario(tc, sc, ft);
    EXPECT_TRUE(r.agree()) << name << " diverged in " << sc.name;
    EXPECT_GT(r.before.throughput, 0.5 * 5'000)
        << name << " unhealthy before faults in " << sc.name;
    EXPECT_GT(r.groups[0].comparable, 0u);
    EXPECT_GT(r.committed_writes(), 0u) << sc.name;
  }
}

TEST_P(ScenarioSuiteTest, MajorityLossStallsOnlyCanopus) {
  const FaultTiming ft = short_timing();
  const TrialConfig tc = small_config(GetParam());
  const auto suite = standard_scenarios(tc.groups, tc.per_group, ft);
  const FaultScenario& loss = suite[2];
  ASSERT_TRUE(loss.majority_loss);
  const TrialReport r = run_scenario(tc, loss, ft);
  EXPECT_TRUE(r.agree());
  if (GetParam() == System::kCanopus) {
    // The documented §6 trade: no progress while a super-leaf lacks a
    // majority — and no divergence.
    EXPECT_TRUE(r.stalled_during());
    // Majority loss jams the rejoin path too: the exclusion of the crashed
    // pnodes can never commit without a group majority, so no live sibling
    // ever sponsors them back — the super-leaf stays dark.
    EXPECT_FALSE(r.progressed_after());
  } else {
    // Quorum systems lose at most the crashed minority's capacity.
    EXPECT_TRUE(r.progressed_after());
  }
}

TEST_P(ScenarioSuiteTest, RecoverableSystemsRegainAvailabilityAfterCrash) {
  const FaultTiming ft = short_timing();
  const TrialConfig tc = small_config(GetParam());
  const auto suite = standard_scenarios(tc.groups, tc.per_group, ft);
  ASSERT_EQ(suite[0].name, "single_node_crash");
  const TrialReport r = run_scenario(tc, suite[0], ft);
  const char* name = system_name(GetParam());
  EXPECT_TRUE(r.agree());
  EXPECT_TRUE(r.progressed_after());
  EXPECT_GT(r.after.throughput, 0.5 * 5'000) << name;
  EXPECT_TRUE(r.retention_ok()) << name << " retained "
                                << r.groups[0].max_retained << " > bound "
                                << retained_log_bound(tc);
}

// The regression the snapshot layer exists for: one node misses more
// commits than any retained history covers, then must come back by state
// transfer — never by a silent, endless history fetch.
TEST_P(ScenarioSuiteTest, LongDowntimeRejoinsViaSnapshot) {
  const FaultTiming ft = long_downtime_timing();
  TrialConfig tc = small_config(GetParam());
  const FaultScenario sc = long_downtime_scenario(tc.per_group, ft);
  const TrialReport r = run_scenario(tc, sc, ft);
  const char* name = system_name(GetParam());
  EXPECT_TRUE(r.agree()) << name;
  EXPECT_TRUE(r.progressed_after()) << name;
  EXPECT_GT(r.groups[0].snapshots, 0u)
      << name << " rejoined without a state transfer";
  EXPECT_TRUE(r.retention_ok()) << name << " retained "
                                << r.groups[0].max_retained << " > bound "
                                << retained_log_bound(tc);
}

TEST_P(ScenarioSuiteTest, DeterministicAcrossRuns) {
  const FaultTiming ft = short_timing();
  const TrialConfig tc = small_config(GetParam());
  const auto suite = standard_scenarios(tc.groups, tc.per_group, ft);
  const TrialReport a = run_scenario(tc, suite[1], ft);
  const TrialReport b = run_scenario(tc, suite[1], ft);
  EXPECT_EQ(a.before.completed, b.before.completed);
  EXPECT_EQ(a.during.completed, b.during.completed);
  EXPECT_EQ(a.after.completed, b.after.completed);
  EXPECT_EQ(a.during.median, b.during.median);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.progress_at_end, b.progress_at_end);
}

// --- RecoverArming: arming recovers against a system without a rejoin
// path must fail fast (strict, the default) or be an explicit opt-in.
// All four real systems now have a repair path (snapshot transfer /
// sponsored rejoin), so the no-recover case is exercised through a stub.

class StubNoRecoverService final : public ConsensusService {
 public:
  StubNoRecoverService(runtime::Host& host, std::vector<NodeId> servers)
      : ConsensusService(host, std::move(servers)) {}
  const char* name() const override { return "StubNoRecover"; }
  bool supports_recover() const override { return false; }
  void submit(std::size_t, kv::Request) override {}
  std::uint64_t committed_writes(std::size_t) const override { return 0; }
  std::uint64_t commit_fingerprint(std::size_t) const override { return 0; }
  std::uint64_t served_reads(std::size_t) const override { return 0; }
  std::uint64_t progress(std::size_t) const override { return 0; }
  const kv::Store& store(std::size_t) const override { return store_; }

 private:
  void node_crash(std::size_t) override {}
  kv::Store store_;
};

TEST(RecoverArmingTest, StrictThrowsForDoomedRecoverEvents) {
  const TrialConfig tc = small_config(System::kCanopus);
  simnet::Simulator sim(1);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  StubNoRecoverService svc(net, cluster.servers);
  ASSERT_FALSE(svc.supports_recover());
  simnet::FaultSchedule sched;
  sched.crash_at(10, cluster.servers[1]).recover_at(20, cluster.servers[1]);
  try {
    arm_via_service(sched, net, svc);  // strict by default
    FAIL() << "arming doomed recovers must throw";
  } catch (const std::invalid_argument& e) {
    // The diagnostic must name the system and the doomed events.
    EXPECT_NE(std::string(e.what()).find("StubNoRecover"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 recover event"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("kTolerateUnsupported"),
              std::string::npos);
  }
}

TEST(RecoverArmingTest, StrictAcceptsCrashOnlyAndRecoverableSystems) {
  {
    const TrialConfig tc = small_config(System::kCanopus);
    simnet::Simulator sim(1);
    simnet::Cluster cluster = build_cluster(tc);
    simnet::Network net(sim, cluster.topo, tc.cpu);
    StubNoRecoverService svc(net, cluster.servers);
    simnet::FaultSchedule crash_only;
    crash_only.crash_at(10, cluster.servers[1]);
    EXPECT_NO_THROW(arm_via_service(crash_only, net, svc));
  }
  // Every real system supports recover now — Canopus included.
  for (System sys : {System::kCanopus, System::kRaft}) {
    const TrialConfig tc = small_config(sys);
    simnet::Simulator sim(1);
    simnet::Cluster cluster = build_cluster(tc);
    simnet::Network net(sim, cluster.topo, tc.cpu);
    auto svc = make_service(tc, cluster, net);
    ASSERT_TRUE(svc->supports_recover());
    simnet::FaultSchedule sched;
    sched.crash_at(10, cluster.servers[1]).recover_at(20, cluster.servers[1]);
    EXPECT_NO_THROW(arm_via_service(sched, net, *svc));
  }
}

TEST(RecoverArmingTest, TolerateModeLeavesTheNodeDark) {
  const TrialConfig tc = small_config(System::kCanopus);
  simnet::Simulator sim(1);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  StubNoRecoverService svc(net, cluster.servers);
  simnet::FaultSchedule sched;
  sched.crash_at(10, cluster.servers[1]).recover_at(20, cluster.servers[1]);
  arm_via_service(sched, net, svc, RecoverArming::kTolerateUnsupported);
  sim.run_until(30);
  EXPECT_FALSE(svc.up(1));  // the recover no-opped, as opted into
  EXPECT_TRUE(svc.ever_crashed(1));
  EXPECT_FALSE(svc.comparable(1));
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ScenarioSuiteTest,
                         ::testing::Values(System::kCanopus, System::kRaft,
                                           System::kZab, System::kEPaxos),
                         [](const auto& info) {
                           return std::string(system_name(info.param));
                         });

}  // namespace
}  // namespace canopus::workload
