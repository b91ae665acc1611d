#include "simnet/fault_schedule.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "simnet/payload_testing.h"
#include "simnet/topology.h"

namespace canopus::simnet {
namespace {

struct Recorder : Process {
  std::vector<std::pair<Time, std::string>> received;
  void on_message(const Message& m) override {
    const auto* s = m.as<std::string>();
    received.push_back({sim().now(), s ? *s : std::string{}});
  }
  using Process::send;
  void say(NodeId dst, std::string text) { send(dst, 10, std::move(text)); }
};

class FaultScheduleTest : public ::testing::Test {
 protected:
  void build(int n, CpuModel cpu = CpuModel{0, 0, 0.0}) {
    RackConfig cfg;
    cfg.racks = 1;
    cfg.servers_per_rack = n;
    cfg.clients_per_rack = 0;
    cluster_ = build_multi_rack(cfg);
    net_ = std::make_unique<Network>(sim_, cluster_.topo, cpu);
    procs_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      net_->attach(cluster_.servers[static_cast<size_t>(i)],
                   procs_[static_cast<size_t>(i)]);
  }

  NodeId srv(int i) { return cluster_.servers[static_cast<size_t>(i)]; }

  Simulator sim_;
  Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<Recorder> procs_;
};

TEST_F(FaultScheduleTest, CrashAndRecoverFireAtScheduledTimes) {
  build(2);
  FaultSchedule sched;
  sched.crash_at(kMillisecond, srv(1))
      .recover_at(2 * kMillisecond, srv(1));
  sched.arm(*net_);

  // Sent before the crash: delivered. During: dropped. After: delivered.
  sim_.at(0, [&] { procs_[0].say(srv(1), "before"); });
  sim_.at(kMillisecond + 1, [&] { procs_[0].say(srv(1), "during"); });
  sim_.at(2 * kMillisecond + 1, [&] { procs_[0].say(srv(1), "after"); });
  sim_.run();

  ASSERT_EQ(procs_[1].received.size(), 2u);
  EXPECT_EQ(procs_[1].received[0].second, "before");
  EXPECT_EQ(procs_[1].received[1].second, "after");
  EXPECT_EQ(net_->stats().dropped, 1u);
}

TEST_F(FaultScheduleTest, SeverAndHealDirectedPair) {
  build(2);
  FaultSchedule sched;
  sched.sever_at(kMillisecond, srv(0), srv(1))
      .heal_at(2 * kMillisecond, srv(0), srv(1));
  sched.arm(*net_);

  sim_.at(kMillisecond + 1, [&] {
    procs_[0].say(srv(1), "blocked");
    procs_[1].say(srv(0), "open");  // reverse direction unaffected
  });
  sim_.at(2 * kMillisecond + 1, [&] { procs_[0].say(srv(1), "healed"); });
  sim_.run();

  ASSERT_EQ(procs_[1].received.size(), 1u);
  EXPECT_EQ(procs_[1].received[0].second, "healed");
  ASSERT_EQ(procs_[0].received.size(), 1u);
}

TEST_F(FaultScheduleTest, PartitionSeversBothDirections) {
  build(2);
  FaultSchedule sched;
  sched.partition_at(kMillisecond, srv(0), srv(1))
      .join_at(2 * kMillisecond, srv(0), srv(1));
  EXPECT_EQ(sched.events().size(), 4u);
  sched.arm(*net_);

  sim_.at(kMillisecond + 1, [&] {
    procs_[0].say(srv(1), "x");
    procs_[1].say(srv(0), "y");
  });
  sim_.at(2 * kMillisecond + 1, [&] {
    procs_[0].say(srv(1), "x2");
    procs_[1].say(srv(0), "y2");
  });
  sim_.run();
  ASSERT_EQ(procs_[0].received.size(), 1u);
  ASSERT_EQ(procs_[1].received.size(), 1u);
  EXPECT_EQ(net_->stats().dropped, 2u);
}

TEST_F(FaultScheduleTest, HookOverridesDefaultApplication) {
  build(2);
  FaultSchedule sched;
  sched.crash_at(kMillisecond, srv(1));

  std::vector<FaultEvent> observed;
  sched.arm(*net_, [&](Network& net, const FaultEvent& ev) {
    observed.push_back(ev);
    FaultSchedule::apply(net, ev);  // the hook decides to apply it
  });
  sim_.run();

  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(observed[0].a, srv(1));
  EXPECT_EQ(observed[0].at, kMillisecond);
  EXPECT_FALSE(net_->is_up(srv(1)));
}

TEST_F(FaultScheduleTest, ProbeArmedBeforeScheduleSeesPreFaultState) {
  build(2);
  // The runner relies on FIFO tie-breaking: a probe scheduled before the
  // schedule is armed observes the state before a same-timestamp fault.
  bool up_at_probe = false;
  sim_.at(kMillisecond, [&] { up_at_probe = net_->is_up(srv(1)); });
  FaultSchedule sched;
  sched.crash_at(kMillisecond, srv(1));
  sched.arm(*net_);
  sim_.run();
  EXPECT_TRUE(up_at_probe);
  EXPECT_FALSE(net_->is_up(srv(1)));
}

TEST(FaultKindNameTest, AllKindsNamed) {
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kCrash), "crash");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kRecover), "recover");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kSever), "sever");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kHeal), "heal");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kCpuSlow), "cpu_slow");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kCpuNormal), "cpu_normal");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kFlapStart), "flap_start");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kFlapStop), "flap_stop");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kDupStart), "dup_start");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kDupStop), "dup_stop");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kReorderStart),
               "reorder_start");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kReorderStop),
               "reorder_stop");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kSkewSet), "skew_set");
  EXPECT_STREQ(fault_kind_name(FaultEvent::Kind::kSkewClear), "skew_clear");
}

TEST(FaultKindNameTest, ParseInvertsName) {
  for (int k = 0; k <= static_cast<int>(FaultEvent::Kind::kSkewClear); ++k) {
    const auto kind = static_cast<FaultEvent::Kind>(k);
    FaultEvent::Kind parsed = FaultEvent::Kind::kCrash;
    ASSERT_TRUE(fault_kind_parse(fault_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  FaultEvent::Kind parsed = FaultEvent::Kind::kCrash;
  EXPECT_FALSE(fault_kind_parse("crashed", &parsed));
}

TEST(FaultScheduleBuilder, DoubleSeverOfSamePairDedups) {
  // An idempotent double-sever (a scenario composed of overlapping
  // partition helpers) collapses to one event; so does its double-heal.
  FaultSchedule s;
  s.sever_at(kMillisecond, 0, 1).sever_at(2 * kMillisecond, 0, 1);
  EXPECT_EQ(s.events().size(), 1u);
  s.heal_at(3 * kMillisecond, 0, 1).heal_at(4 * kMillisecond, 0, 1);
  EXPECT_EQ(s.events().size(), 2u);
  // Re-severing after the heal is a NEW fault, not a duplicate.
  s.sever_at(5 * kMillisecond, 0, 1);
  EXPECT_EQ(s.events().size(), 3u);
  // The reverse direction is a distinct pair.
  s.sever_at(5 * kMillisecond, 1, 0);
  EXPECT_EQ(s.events().size(), 4u);
  // A heal with no sever open for the pair is dropped outright.
  FaultSchedule t;
  t.heal_at(kMillisecond, 3, 4);
  EXPECT_TRUE(t.empty());
}

TEST(FaultScheduleBuilder, OverlappingPartitionsDedup) {
  FaultSchedule s;
  s.partition_at(kMillisecond, 0, 1).partition_at(2 * kMillisecond, 0, 1);
  EXPECT_EQ(s.events().size(), 2u);  // second partition: both severs open
  s.join_at(3 * kMillisecond, 0, 1).join_at(4 * kMillisecond, 0, 1);
  EXPECT_EQ(s.events().size(), 4u);
}

TEST_F(FaultScheduleTest, DuplicationDeliversEchoCopy) {
  build(2);
  FaultSchedule sched;
  sched.dup_at(kMillisecond, srv(0), srv(1), kMillisecond)
      .dup_stop_at(5 * kMillisecond, srv(0), srv(1));
  sched.arm(*net_);

  sim_.at(2 * kMillisecond, [&] { procs_[0].say(srv(1), "echo"); });
  sim_.at(6 * kMillisecond, [&] { procs_[0].say(srv(1), "single"); });
  sim_.run();

  // The duplicated send arrives twice, the echo trailing by the
  // configured delay; after dup_stop messages deliver once again.
  ASSERT_EQ(procs_[1].received.size(), 3u);
  EXPECT_EQ(procs_[1].received[0].second, "echo");
  EXPECT_EQ(procs_[1].received[1].second, "echo");
  EXPECT_EQ(procs_[1].received[1].first - procs_[1].received[0].first,
            kMillisecond);
  EXPECT_EQ(procs_[1].received[2].second, "single");
  EXPECT_EQ(net_->stats().duplicated, 1u);
}

TEST_F(FaultScheduleTest, FlapDropsDuringDownHalfPeriod) {
  build(2);
  // Flap with a 2 ms period from t=1 ms: the pair is down during the
  // first half of each period — [1,2) down, [2,3) up, [3,4) down...
  FaultSchedule sched;
  sched.flap_at(kMillisecond, srv(0), srv(1), 2 * kMillisecond)
      .flap_stop_at(10 * kMillisecond, srv(0), srv(1));
  sched.arm(*net_);

  sim_.at(kMillisecond + kMillisecond / 2,
          [&] { procs_[0].say(srv(1), "down1"); });
  sim_.at(2 * kMillisecond + kMillisecond / 2,
          [&] { procs_[0].say(srv(1), "up1"); });
  sim_.at(3 * kMillisecond + kMillisecond / 2,
          [&] { procs_[0].say(srv(1), "down2"); });
  sim_.at(11 * kMillisecond, [&] { procs_[0].say(srv(1), "stopped"); });
  sim_.run();

  ASSERT_EQ(procs_[1].received.size(), 2u);
  EXPECT_EQ(procs_[1].received[0].second, "up1");
  EXPECT_EQ(procs_[1].received[1].second, "stopped");
  EXPECT_EQ(net_->stats().dropped, 2u);
}

TEST_F(FaultScheduleTest, CpuSlowScalesComputeCost) {
  build(2, CpuModel{10'000, 10'000, 0.0});  // 10 us fixed send/recv cost
  FaultSchedule sched;
  sched.cpu_slow_at(kMillisecond, srv(0), 100.0)
      .cpu_normal_at(10 * kMillisecond, srv(0));
  sched.arm(*net_);

  sim_.at(0, [&] { procs_[0].say(srv(1), "fast"); });
  sim_.at(kMillisecond + 1, [&] { procs_[0].say(srv(1), "slowed"); });
  sim_.at(10 * kMillisecond + 1, [&] { procs_[0].say(srv(1), "fast2"); });
  sim_.run();

  ASSERT_EQ(procs_[1].received.size(), 3u);
  const Time lat_fast = procs_[1].received[0].first;
  const Time lat_slow = procs_[1].received[1].first - (kMillisecond + 1);
  const Time lat_fast2 =
      procs_[1].received[2].first - (10 * kMillisecond + 1);
  // Degraded sender: its 10 us send cost became 1 ms. After cpu_normal the
  // latency returns EXACTLY to the baseline (factor 1.0 takes the
  // unscaled code path — bit-identity when the palette is off).
  EXPECT_EQ(lat_fast, lat_fast2);
  EXPECT_GE(lat_slow - lat_fast, 900'000);
}

TEST_F(FaultScheduleTest, ReorderCanFlipDeliveryOrder) {
  build(2);
  FaultSchedule sched;
  sched.reorder_at(0, srv(0), srv(1), 5 * kMillisecond)
      .reorder_stop_at(50 * kMillisecond, srv(0), srv(1));
  sched.arm(*net_);

  // A burst of closely spaced messages through a 5 ms jitter window MUST
  // arrive out of order (and deterministically so — the per-pair jitter
  // RNG is derived from the simulator seed and the pair alone).
  constexpr int kBurst = 10;
  for (int i = 0; i < kBurst; ++i)
    sim_.at(kMillisecond + i * 1'000,
            [&, i] { procs_[0].say(srv(1), std::to_string(i)); });
  sim_.run();

  ASSERT_EQ(procs_[1].received.size(), static_cast<std::size_t>(kBurst));
  bool flipped = false;
  for (std::size_t i = 1; i < procs_[1].received.size(); ++i)
    flipped |= std::stoi(procs_[1].received[i].second) <
               std::stoi(procs_[1].received[i - 1].second);
  EXPECT_TRUE(flipped) << "jittered burst arrived fully in order";
  EXPECT_EQ(net_->stats().reordered, static_cast<std::uint64_t>(kBurst));
}

struct TimerProc : Process {
  Time fired_at = -1;
  void on_start() override {
    // Indirection: the outer timer is armed at t=0 BEFORE the skew event
    // applies (control events at t >= 1 ms); the inner, measured timer is
    // armed from node context at t=2 ms, under skew.
    after(2 * kMillisecond, [this] {
      after(100 * kMillisecond, [this] { fired_at = sim().now(); });
    });
  }
  void on_message(const Message&) override {}
};

TEST(FaultScheduleGrayTest, ClockSkewScalesAndOffsetsTimerArming) {
  Simulator sim;
  RackConfig cfg;
  cfg.racks = 1;
  cfg.servers_per_rack = 3;
  cfg.clients_per_rack = 0;
  const Cluster cluster = build_multi_rack(cfg);
  Network net(sim, cluster.topo, CpuModel{0, 0, 0.0});
  TimerProc fast, normal, lagged;
  net.attach(cluster.servers[0], fast);
  net.attach(cluster.servers[1], normal);
  net.attach(cluster.servers[2], lagged);

  FaultSchedule sched;
  sched.skew_at(kMillisecond, cluster.servers[0], 2.0, 0)
      .skew_clear_at(500 * kMillisecond, cluster.servers[0])
      .skew_at(kMillisecond, cluster.servers[2], 1.0, 5 * kMillisecond)
      .skew_clear_at(500 * kMillisecond, cluster.servers[2]);
  sched.arm(net);
  sim.run();

  // All three armed a nominal 100 ms timer at t=2 ms. Rate 2.0 is a fast
  // clock (the timer fires at half the nominal delay); offset adds a
  // constant lag; the unskewed node is exact.
  EXPECT_EQ(normal.fired_at, 102 * kMillisecond);
  EXPECT_EQ(fast.fired_at, 52 * kMillisecond);
  EXPECT_EQ(lagged.fired_at, 107 * kMillisecond);
}

}  // namespace
}  // namespace canopus::simnet
