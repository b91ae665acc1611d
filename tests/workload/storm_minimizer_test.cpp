// StormMinimizer tests: ddmin unit semantics against predicate oracles,
// and the full loop against a REAL auditor oracle — a deterministic
// mini-harness in which a reorder window provably flips a naive applier's
// commit order, the HistoryAuditor detects the fork (the audit-plane
// self-test for the gray palette), and the minimizer strips a noisy storm
// down to the one fault pair that matters.
#include "workload/storm_minimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "simnet/chaos.h"
#include "simnet/payload_testing.h"
#include "simnet/topology.h"
#include "workload/audit.h"

namespace canopus::workload {
namespace {

using simnet::FaultEvent;
using simnet::FaultSchedule;

// --- ddmin against predicate oracles ----------------------------------

FaultSchedule noise_storm(std::size_t pairs) {
  // `pairs` crash/recover pairs on rotating nodes, 10 ms apart.
  FaultSchedule s;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Time t = static_cast<Time>(i + 1) * 10 * kMillisecond;
    s.crash_at(t, static_cast<NodeId>(i % 5))
        .recover_at(t + 5 * kMillisecond, static_cast<NodeId>(i % 5));
  }
  return s;
}

bool has_event(const FaultSchedule& s, FaultEvent::Kind kind, NodeId a,
               NodeId b) {
  for (const FaultEvent& ev : s.events())
    if (ev.kind == kind && ev.a == a && ev.b == b) return true;
  return false;
}

TEST(StormMinimizer, ReducesToSingleCulpritUnit) {
  // 20 noise pairs plus one sever pair; the oracle cares only about the
  // sever. Minimal = exactly the sever and its heal.
  std::vector<FaultEvent> evs = noise_storm(20).events();
  evs.push_back({205 * kMillisecond, FaultEvent::Kind::kSever, 3, 4, 0, 0});
  evs.push_back({280 * kMillisecond, FaultEvent::Kind::kHeal, 3, 4, 0, 0});
  std::stable_sort(evs.begin(), evs.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  FaultSchedule storm;
  for (const FaultEvent& ev : evs) storm.add(ev);

  StormMinimizer mini([](const FaultSchedule& s) {
    return has_event(s, FaultEvent::Kind::kSever, 3, 4);
  });
  const MinimizeResult res = mini.minimize(storm);
  EXPECT_TRUE(res.reproduced);
  EXPECT_EQ(res.original_events, 42u);
  ASSERT_EQ(res.minimal_events, 2u);
  EXPECT_EQ(res.minimal.events()[0].kind, FaultEvent::Kind::kSever);
  EXPECT_EQ(res.minimal.events()[1].kind, FaultEvent::Kind::kHeal);
  EXPECT_LE(res.probes, 100u);
}

TEST(StormMinimizer, KeepsInteractingUnits) {
  // The failure needs BOTH the crash of node 1 and the sever (3,4): ddmin
  // must keep two units that live in different halves of the storm.
  std::vector<FaultEvent> evs = noise_storm(16).events();
  evs.push_back({15 * kMillisecond, FaultEvent::Kind::kSever, 3, 4, 0, 0});
  evs.push_back({290 * kMillisecond, FaultEvent::Kind::kHeal, 3, 4, 0, 0});
  std::stable_sort(evs.begin(), evs.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  FaultSchedule storm;
  for (const FaultEvent& ev : evs) storm.add(ev);

  StormMinimizer mini([](const FaultSchedule& s) {
    return has_event(s, FaultEvent::Kind::kSever, 3, 4) &&
           has_event(s, FaultEvent::Kind::kCrash, 1, kInvalidNode);
  });
  const MinimizeResult res = mini.minimize(storm);
  EXPECT_TRUE(res.reproduced);
  // 1-minimal: the sever pair, plus at least one crash(1)/recover pair
  // (noise rotates nodes, so several crash(1) units exist; ddmin keeps 1).
  EXPECT_EQ(res.minimal_events, 4u);
  EXPECT_TRUE(has_event(res.minimal, FaultEvent::Kind::kSever, 3, 4));
  EXPECT_TRUE(has_event(res.minimal, FaultEvent::Kind::kCrash, 1,
                        kInvalidNode));
}

TEST(StormMinimizer, GreenOracleMeansNothingToMinimize) {
  StormMinimizer mini([](const FaultSchedule&) { return false; });
  const MinimizeResult res = mini.minimize(noise_storm(5));
  EXPECT_FALSE(res.reproduced);
  EXPECT_EQ(res.minimal_events, res.original_events);
  EXPECT_EQ(res.probes, 1u);  // only the initial reproduction check
}

TEST(StormMinimizer, ToleratesUnpairedEvents) {
  // A hand-truncated storm with a lone heal: it becomes a singleton unit
  // and is dropped like any other irrelevant one.
  FaultSchedule storm;
  storm.crash_at(10 * kMillisecond, 2)
      .recover_at(20 * kMillisecond, 2)
      .add({30 * kMillisecond, FaultEvent::Kind::kHeal, 0, 1, 0, 0});
  StormMinimizer mini([](const FaultSchedule& s) {
    return has_event(s, FaultEvent::Kind::kCrash, 2, kInvalidNode);
  });
  const MinimizeResult res = mini.minimize(storm);
  EXPECT_TRUE(res.reproduced);
  EXPECT_EQ(res.minimal_events, 2u);
}

TEST(StormMinimizer, ShrinksDurationsTowardFloor) {
  FaultSchedule storm;
  storm.crash_at(10 * kMillisecond, 0).recover_at(510 * kMillisecond, 0);
  MinimizeOptions opt;
  opt.min_duration = kMillisecond;
  StormMinimizer mini(
      [](const FaultSchedule& s) {
        return has_event(s, FaultEvent::Kind::kCrash, 0, kInvalidNode);
      },
      opt);
  const MinimizeResult res = mini.minimize(storm);
  ASSERT_EQ(res.minimal_events, 2u);
  EXPECT_GT(res.duration_shrinks, 0u);
  const Time gap = res.minimal.events()[1].at - res.minimal.events()[0].at;
  EXPECT_EQ(gap, opt.min_duration);
}

// --- the real-oracle loop: naive applier + auditor --------------------
//
// Node 0 broadcasts sequence-numbered writes to two "appliers" which
// commit in ARRIVAL order — deliberately naive, exactly the mistake an
// ordering protocol exists to prevent. With FIFO delivery both appliers
// commit identical orders; a reorder window on one inbound path flips
// arrival order on that applier alone, and the auditor's prefix check
// catches the fork. This doubles as the gray palette's audit self-test:
// the reorder primitive provably produces histories the audit plane
// rejects.

struct Sender : simnet::Process {
  void on_message(const simnet::Message&) override {}
  void emit(NodeId dst, std::uint64_t seq) {
    send(dst, simnet::Payload::sized(std::to_string(seq), kv::kRequestWire));
  }
};

struct Applier : simnet::Process {
  HistoryAuditor* auditor = nullptr;
  std::size_t index = 0;
  void on_message(const simnet::Message& m) override {
    const auto* s = m.as<std::string>();
    ASSERT_NE(s, nullptr);
    const std::uint64_t seq = std::stoull(*s);
    kv::Request r;
    r.id = {0, seq};
    r.is_write = true;
    r.key = 1;
    r.value = 1'000 + seq;  // unique per write: full-strength rank checks
    auditor->note_commit(index, {r});
  }
};

constexpr Time kFirstSend = 100 * kMillisecond;
constexpr Time kSendGap = 5 * kMillisecond;
constexpr int kSends = 60;

std::uint64_t probe_violations(const FaultSchedule& storm) {
  simnet::Simulator sim(97);
  simnet::RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 3;
  rc.clients_per_rack = 0;
  const simnet::Cluster cluster = simnet::build_multi_rack(rc);
  simnet::Network net(sim, cluster.topo, simnet::CpuModel{0, 0, 0.0});

  AuditConfig ac;
  ac.ordered = true;
  HistoryAuditor auditor(ac, 2);
  Sender sender;
  Applier a0, a1;
  a0.auditor = a1.auditor = &auditor;
  a0.index = 0;
  a1.index = 1;
  net.attach(cluster.servers[0], sender);
  net.attach(cluster.servers[1], a0);
  net.attach(cluster.servers[2], a1);
  storm.arm(net);

  for (int i = 0; i < kSends; ++i)
    sim.at(kFirstSend + i * kSendGap, [&, i] {
      sender.emit(cluster.servers[1], static_cast<std::uint64_t>(i));
      sender.emit(cluster.servers[2], static_cast<std::uint64_t>(i));
    });
  sim.run();
  auditor.finalize(sim.now(), {true, true});
  return auditor.violation_count();
}

/// The culprit: a reorder window on the path 0 -> applier A, wide enough
/// (20 ms jitter vs 5 ms send gap) that arrival order MUST flip.
FaultSchedule reorder_core(const simnet::Cluster& cluster) {
  FaultSchedule s;
  s.reorder_at(150 * kMillisecond, cluster.servers[0], cluster.servers[1],
               20 * kMillisecond)
      .reorder_stop_at(350 * kMillisecond, cluster.servers[0],
                       cluster.servers[1]);
  return s;
}

simnet::Cluster harness_cluster() {
  simnet::RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 3;
  rc.clients_per_rack = 0;
  return simnet::build_multi_rack(rc);
}

TEST(AuditSelfTest, ReorderInducedOrderFlipIsDetected) {
  // Clean run: identical arrival orders, no violations.
  EXPECT_EQ(probe_violations(FaultSchedule{}), 0u);
  // The reorder window forks one applier's commit order.
  const simnet::Cluster cluster = harness_cluster();
  EXPECT_GT(probe_violations(reorder_core(cluster)), 0u);
}

TEST(StormMinimizer, AuditorOracleShrinksNoisyStormToReorderCore) {
  const simnet::Cluster cluster = harness_cluster();

  // Noise that provably cannot flip the 0->applier paths: pair faults
  // drawn over the two appliers only (no traffic flows between them) and
  // node faults with no observable effect here (cpu with a zero CpuModel,
  // skew with no timers). Crash stays OFF — a dark applier would miss
  // writes and fork by itself.
  simnet::ChaosConfig cc;
  cc.start = 120 * kMillisecond;
  cc.end = 380 * kMillisecond;
  cc.events_per_s = 60.0;
  cc.min_heal = 20 * kMillisecond;
  cc.mean_extra = 30 * kMillisecond;
  cc.crash_weight = 0;
  cc.sever_weight = 1;
  cc.cpu_weight = cc.flap_weight = cc.dup_weight = cc.skew_weight = 1;
  simnet::ChaosScheduleGenerator gen(7);
  std::vector<FaultEvent> evs =
      gen.generate(cc, {cluster.servers[1], cluster.servers[2]}).events();
  ASSERT_GE(evs.size(), 10u) << "noise storm too small to be interesting";
  const FaultSchedule core = reorder_core(cluster);
  for (const FaultEvent& ev : core.events()) evs.push_back(ev);
  std::stable_sort(evs.begin(), evs.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  FaultSchedule storm;
  for (const FaultEvent& ev : evs) storm.add(ev);
  ASSERT_EQ(probe_violations(storm), probe_violations(core))
      << "noise is not inert — it changed the verdict";

  auto reduce = [&] {
    StormMinimizer mini(
        [](const FaultSchedule& s) { return probe_violations(s) > 0; });
    return mini.minimize(storm);
  };
  const MinimizeResult res = reduce();
  EXPECT_TRUE(res.reproduced);
  EXPECT_LE(res.minimal_events, 3u);
  EXPECT_TRUE(has_event(res.minimal, FaultEvent::Kind::kReorderStart,
                        cluster.servers[0], cluster.servers[1]));
  // The minimal storm still trips the auditor, and re-reducing from the
  // same inputs replays bit-identically (probe count included).
  EXPECT_GT(probe_violations(res.minimal), 0u);
  const MinimizeResult again = reduce();
  EXPECT_EQ(res.minimal.events(), again.minimal.events());
  EXPECT_EQ(res.probes, again.probes);
}

}  // namespace
}  // namespace canopus::workload
