// The sharded deployment end to end: every system serves a hash-partitioned
// keyspace across independent groups, router clients redirect around
// crashed servers, group-scoped fault plumbing lands on the right nodes,
// per-group auditors stay clean under chaos storms, and the whole sharded
// pipeline is bit-identical across PDES shard counts.
#include "workload/sharded.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "workload/trial.h"

namespace canopus::workload {
namespace {

constexpr std::uint32_t kSessions = 32;

TrialConfig small_sharded(System sys, int groups = 2) {
  TrialConfig tc;
  tc.system = sys;
  tc.groups = groups;
  tc.per_group = 3;
  tc.client_machines = 1;  // per rack
  tc.num_keys = 100'000;
  tc.warmup = 200 * kMillisecond;
  tc.measure = 600 * kMillisecond;
  tc.drain = 300 * kMillisecond;
  return tc;
}

TrialReport run_sharded(const TrialConfig& tc, double rate) {
  return run_trial({tc, rate, trial_seed(tc, rate), kSessions});
}

FaultTiming short_timing() {
  FaultTiming ft;
  ft.warmup = 200 * kMillisecond;
  ft.fault_at = 600 * kMillisecond;
  ft.heal_at = 1'300 * kMillisecond;
  ft.end_at = 2'000 * kMillisecond;
  ft.drain = 500 * kMillisecond;
  return ft;
}

class ShardedSystemsTest : public ::testing::TestWithParam<System> {};

TEST_P(ShardedSystemsTest, EveryGroupCommitsAndAgrees) {
  const TrialReport r = run_sharded(small_sharded(GetParam()), 4'000);
  EXPECT_GT(r.steady.completed, 0u);
  EXPECT_TRUE(r.converged());
  EXPECT_TRUE(r.retention_ok());
  ASSERT_EQ(r.groups.size(), 2u);
  for (std::size_t g = 0; g < r.groups.size(); ++g)
    EXPECT_GT(r.groups[g].max_count, 0u)
        << "group " << g << " committed nothing";
  EXPECT_EQ(r.sessions, 2u * 32u);  // 2 racks x 1 machine x 32 sessions
  EXPECT_EQ(r.client_failed, 0u);
  EXPECT_EQ(r.retries, 0u);  // no faults: no group was ever fully down
}

TEST_P(ShardedSystemsTest, ZeroAuditViolationsUnderPerGroupStorm) {
  const TrialConfig tc = fault_tuned(small_sharded(GetParam()));
  const ChaosIntensity ci = standard_intensities()[0];  // low
  const TrialReport r =
      run_trial(chaos_trial(tc, ci, short_timing(), 4'000, kSessions));
  EXPECT_EQ(r.violations(), 0u) << (r.violation_details.empty()
                                        ? std::string("(no details)")
                                        : r.violation_details[0].detail);
  ASSERT_EQ(r.groups.size(), 2u);
  for (const GroupReport& g : r.groups) EXPECT_EQ(g.violations, 0u);
  EXPECT_GT(r.fault_events, 0u);
  EXPECT_GT(r.acked_writes(), 0u);
  EXPECT_GT(r.committed_writes(), 0u);
  EXPECT_GT(r.before.completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, ShardedSystemsTest,
                         ::testing::Values(System::kCanopus, System::kRaft,
                                           System::kZab, System::kEPaxos),
                         [](const auto& info) {
                           return std::string(system_name(info.param));
                         });

TEST(ShardedDeployment, FleetIndexingIsGroupMajor) {
  const TrialConfig tc = small_sharded(System::kRaft);
  simnet::Simulator sim(1);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  const std::vector<NodeId>& c = cluster.servers;
  const auto servers = group_servers(tc, cluster);
  ASSERT_EQ(servers, (std::vector<std::vector<NodeId>>{{c[0], c[1], c[2]},
                                                       {c[3], c[4], c[5]}}));
  const auto groups = make_group_services(tc, cluster, net);
  ASSERT_EQ(groups.size(), 2u);
  for (std::size_t g = 0; g < 2; ++g)
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(groups[g]->server_node(s), servers[g][s]);
}

TEST(ShardedDeployment, RoutersRedirectAroundACrashedServer) {
  const TrialConfig tc = small_sharded(System::kRaft);
  const std::uint64_t seed = 77;
  simnet::Simulator sim(seed);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  const auto groups = make_group_services(tc, cluster, net);
  auto rec = std::make_shared<LatencyRecorder>();
  rec->set_window(tc.warmup, tc.warmup + tc.measure);
  auto routers = attach_router_clients(tc, kSessions, cluster, net, rec,
                                       4'000, seed, tc.warmup + tc.measure);
  // Take group 0's follower down for the whole run: every batch whose
  // round-robin pick lands on it must be redirected to a live sibling.
  sim.at(1, [&groups] { groups[0]->crash(1); });
  sim.run_until(tc.warmup + tc.measure + tc.drain);
  std::uint64_t redirects = 0, failed = 0;
  for (const auto& r : routers) {
    redirects += r->redirects();
    failed += r->failed();
  }
  EXPECT_GT(redirects, 0u);
  EXPECT_EQ(failed, 0u);  // a 2/3 group is never fully down
  EXPECT_GT(rec->completed(), 0u);
  // Both groups still commit and agree despite the dark node.
  for (const auto& g : groups) {
    const GroupReport check = check_group(*g, retained_log_bound(tc));
    EXPECT_GT(check.max_count, 0u);
    EXPECT_TRUE(check.converged());
  }
}

TEST(ShardedDeployment, WholeGroupDownRetriesThenFailsHonestly) {
  const TrialConfig tc = small_sharded(System::kRaft);
  const std::uint64_t seed = 78;
  simnet::Simulator sim(seed);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  const auto groups = make_group_services(tc, cluster, net);
  auto rec = std::make_shared<LatencyRecorder>();
  rec->set_window(tc.warmup, tc.warmup + tc.measure);
  auto routers = attach_router_clients(tc, kSessions, cluster, net, rec,
                                       4'000, seed, tc.warmup + tc.measure);
  sim.at(1, [&groups] {
    for (std::size_t s = 0; s < groups[0]->num_servers(); ++s)
      groups[0]->crash(s);
  });
  sim.run_until(tc.warmup + tc.measure + tc.drain);
  std::uint64_t retries = 0, failed = 0;
  for (const auto& r : routers) {
    retries += r->retries();
    failed += r->failed();
  }
  EXPECT_GT(retries, 0u);   // backoff was exercised
  EXPECT_GT(failed, 0u);    // and bounded: group-0 keys eventually fail
  // The recorder windows failures by arrival (steady-state only), so it
  // sees a subset of the router's lifetime count.
  EXPECT_GT(rec->failed(), 0u);
  EXPECT_LE(rec->failed(), failed);
  // The surviving group keeps serving its share of the keyspace.
  EXPECT_GT(check_group(*groups[1], retained_log_bound(tc)).max_count, 0u);
  EXPECT_GT(rec->completed(), 0u);
}

TEST(ShardedDeployment, GroupScopedScenarioHitsOnlyItsGroup) {
  const TrialConfig tc = small_sharded(System::kRaft);
  const FaultTiming ft = short_timing();
  simnet::Simulator sim(5);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  const auto groups = make_group_services(tc, cluster, net);
  // A group-local single-node crash scoped onto group 1.
  FaultScenario local;
  local.name = "single_node_crash";
  local.steps.crash_at(ft.fault_at, 1).recover_at(ft.heal_at, 1);
  const FaultScenario scoped = scope_to_group(local, 1, tc.per_group);
  EXPECT_EQ(scoped.name, "single_node_crash@group1");
  EXPECT_EQ(scoped.steps.events()[0].a, 4u);  // 1 * per_group + 1
  arm_via_service(make_schedule(scoped, cluster.servers), net,
                  {groups[0].get(), groups[1].get()});
  sim.run_until(ft.fault_at + 1);
  EXPECT_FALSE(groups[1]->up(1));
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(groups[0]->up(s));
  sim.run_until(ft.heal_at + 1);
  EXPECT_TRUE(groups[1]->up(1));
}

TEST(ShardedDeployment, StrictArmingAcceptsRecoversForAllSystems) {
  // Every system — Canopus included, via sponsored rejoin — now has a
  // repair path, so strict arming accepts recover events everywhere.
  for (System sys : {System::kCanopus, System::kRaft}) {
    const TrialConfig tc = small_sharded(sys);
    simnet::Simulator sim(6);
    simnet::Cluster cluster = build_cluster(tc);
    simnet::Network net(sim, cluster.topo, tc.cpu);
    const auto groups = make_group_services(tc, cluster, net);
    ASSERT_TRUE(groups[0]->supports_recover());
    const std::vector<ConsensusService*> services{groups[0].get(),
                                                  groups[1].get()};
    simnet::FaultSchedule with_recover;
    with_recover.crash_at(10, cluster.servers[0])
        .recover_at(20, cluster.servers[0]);
    EXPECT_NO_THROW(arm_via_service(with_recover, net, services));
    EXPECT_NO_THROW(arm_via_service(with_recover, net, services,
                                    RecoverArming::kTolerateUnsupported));
  }
}

TEST(ShardedChaos, GrayIntensityDrawsOnlyGrayEventsInEveryGroup) {
  // gray-cpu zeroes the crash and sever weights: the per-group storms a
  // sharded trial arms must carry the whole palette, not just the rates.
  const TrialConfig tc = fault_tuned(small_sharded(System::kRaft, 3));
  const ChaosIntensity gray_cpu = gray_intensities()[0];
  ASSERT_EQ(gray_cpu.name, "gray-cpu");
  const Trial t =
      chaos_trial(tc, gray_cpu, short_timing(), 4'000, kSessions);
  ASSERT_FALSE(t.faults->events().empty());
  std::set<NodeId> slowed;
  for (const simnet::FaultEvent& ev : t.faults->events()) {
    EXPECT_TRUE(ev.kind == simnet::FaultEvent::Kind::kCpuSlow ||
                ev.kind == simnet::FaultEvent::Kind::kCpuNormal)
        << "gray-cpu storm drew fault kind " << static_cast<int>(ev.kind);
    slowed.insert(ev.a);
  }
  // One storm per group: every group's servers see gray faults.
  std::set<std::size_t> groups_hit;
  const simnet::Cluster cluster = build_cluster(tc);
  for (std::size_t s = 0; s < cluster.servers.size(); ++s)
    if (slowed.contains(cluster.servers[s]))
      groups_hit.insert(s / static_cast<std::size_t>(tc.per_group));
  EXPECT_EQ(groups_hit.size(), 3u);
}

TEST(ShardedChaos, BitIdenticalAcrossSimThreads) {
  TrialConfig tc = fault_tuned(small_sharded(System::kRaft));
  const FaultTiming ft = short_timing();
  const ChaosIntensity ci = standard_intensities()[1];  // medium
  const TrialReport serial =
      run_trial(chaos_trial(tc, ci, ft, 4'000, kSessions));
  tc.sim_threads = 2;
  const TrialReport sharded =
      run_trial(chaos_trial(tc, ci, ft, 4'000, kSessions));
  EXPECT_EQ(serial.violations(), 0u);
  EXPECT_EQ(sharded.violations(), 0u);
  EXPECT_EQ(serial.fault_events, sharded.fault_events);
  EXPECT_EQ(serial.before.completed, sharded.before.completed);
  EXPECT_EQ(serial.during.completed, sharded.during.completed);
  EXPECT_EQ(serial.after.completed, sharded.after.completed);
  EXPECT_EQ(serial.acked_writes(), sharded.acked_writes());
  EXPECT_EQ(serial.committed_writes(), sharded.committed_writes());
  EXPECT_EQ(serial.redirects, sharded.redirects);
  EXPECT_EQ(serial.client_failed, sharded.client_failed);
  EXPECT_EQ(serial.recovery_ns, sharded.recovery_ns);
}

TEST(ShardedTrial, BitIdenticalAcrossSimThreadsAndRepeatable) {
  TrialConfig tc = small_sharded(System::kCanopus);
  const TrialReport a = run_sharded(tc, 4'000);
  const TrialReport b = run_sharded(tc, 4'000);
  tc.sim_threads = 2;
  const TrialReport c = run_sharded(tc, 4'000);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.steady.completed, c.steady.completed);
  EXPECT_EQ(a.steady.median, c.steady.median);
  EXPECT_EQ(a.nodes, c.nodes);
  EXPECT_EQ(a.sent, c.sent);
}

}  // namespace
}  // namespace canopus::workload
