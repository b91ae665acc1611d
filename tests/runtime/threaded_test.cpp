// ThreadedRuntime smoke tests: message delivery between real node threads,
// timer firing against the wall clock, driver-side fault injection
// (crash/recover, sever/heal) and closure injection via Host::post.
#include "runtime/threaded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "simnet/payload_testing.h"

namespace canopus::runtime {
namespace {

using simnet::Message;

// Polls `done` for up to `ms` wall milliseconds.
bool wait_for(const std::function<bool()>& done, int ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Echoes every int payload back to its sender until `limit` hops ran.
class Echo : public simnet::Process {
 public:
  explicit Echo(int limit = 0, NodeId first_dst = kInvalidNode)
      : limit_(limit), first_dst_(first_dst) {}

  void on_start() override {
    if (first_dst_ != kInvalidNode) send(first_dst_, 16, int{0});
  }
  void on_message(const Message& m) override {
    received.fetch_add(1, std::memory_order_relaxed);
    const int v = *m.as<int>();
    if (v < limit_) send(m.src(), 16, int{v + 1});
  }

  // Exposed for Host::post-driven sends from the test driver.
  void do_send(NodeId dst, int v) { send(dst, 16, int{v}); }

  std::atomic<int> received{0};

 private:
  int limit_;
  NodeId first_dst_;
};

// Re-arms itself `rounds` times with a short delay, counting any timer
// that fires before its delay has passed on the node's clock.
class Beeper : public simnet::Process {
 public:
  explicit Beeper(int rounds) : rounds_(rounds) {}
  void on_start() override { arm(); }
  void on_message(const Message&) override {}

  std::atomic<int> fired{0};
  std::atomic<int> early{0};

 private:
  static constexpr Time kDelay = 200 * kMicrosecond;
  void arm() {
    const Time armed_at = sim().now();
    after(kDelay, [this, armed_at] {
      if (sim().now() - armed_at < kDelay) early.fetch_add(1);
      if (fired.fetch_add(1, std::memory_order_relaxed) + 1 < rounds_) arm();
    });
  }
  int rounds_;
};

TEST(ThreadedRuntime, StartStopIdle) {
  ThreadedRuntime rt(2, /*seed=*/1);
  Echo a, b;
  rt.attach(0, a);
  rt.attach(1, b);
  rt.start();
  EXPECT_TRUE(rt.running());
  rt.stop();
  EXPECT_FALSE(rt.running());
  rt.stop();  // idempotent
}

TEST(ThreadedRuntime, PingPongAcrossThreads) {
  constexpr int kHops = 2000;
  ThreadedRuntime rt(2, 1);
  Echo a(kHops, /*first_dst=*/1);  // kicks off the rally
  Echo b(kHops);
  rt.attach(0, a);
  rt.attach(1, b);
  rt.start();
  ASSERT_TRUE(wait_for([&] {
    return a.received.load() + b.received.load() >= kHops;
  }));
  rt.stop();
  const auto total = rt.total_stats();
  EXPECT_EQ(total.delivered,
            static_cast<std::uint64_t>(a.received.load() + b.received.load()));
  EXPECT_EQ(total.dropped, 0u);
}

TEST(ThreadedRuntime, TimersFireOnWallClockNeverEarly) {
  ThreadedRuntime rt(1, 1);
  Beeper p(10);
  rt.attach(0, p);
  rt.start();
  ASSERT_TRUE(wait_for([&] { return p.fired.load() >= 10; }));
  rt.stop();
  EXPECT_GE(rt.stats(0).timers, 10u);
  EXPECT_EQ(p.early.load(), 0);
}

TEST(ThreadedRuntime, PostRunsInNodeContext) {
  ThreadedRuntime rt(2, 1);
  Echo a, b;
  rt.attach(0, a);
  rt.attach(1, b);
  rt.start();
  // Sends must originate from a node's execution context; post() provides
  // the driver with exactly that.
  Echo* pa = &a;
  rt.post(0, [pa] { pa->do_send(1, 100); });
  ASSERT_TRUE(wait_for([&] { return b.received.load() >= 1; }));
  rt.stop();
  EXPECT_GE(rt.stats(0).posts, 1u);
}

TEST(ThreadedRuntime, CrashDropsRecoverResumes) {
  ThreadedRuntime rt(2, 1);
  Echo a, b;
  rt.attach(0, a);
  rt.attach(1, b);
  rt.start();

  rt.crash(1);
  EXPECT_FALSE(rt.is_up(1));
  Echo* pa = &a;
  rt.post(0, [pa] { pa->do_send(1, 100); });
  // The send is dropped (sender-side: dst is down).
  ASSERT_TRUE(wait_for([&] { return rt.stats(0).dropped >= 1; }));
  EXPECT_EQ(b.received.load(), 0);

  rt.recover(1);
  EXPECT_TRUE(rt.is_up(1));
  rt.post(0, [pa] { pa->do_send(1, 100); });
  ASSERT_TRUE(wait_for([&] { return b.received.load() >= 1; }));
  rt.stop();
}

TEST(ThreadedRuntime, SeverIsDirectedHealRestores) {
  ThreadedRuntime rt(2, 1);
  Echo a, b;
  rt.attach(0, a);
  rt.attach(1, b);
  rt.start();

  rt.sever(0, 1);
  Echo* pa = &a;
  Echo* pb = &b;
  rt.post(0, [pa] { pa->do_send(1, 100); });  // dropped: 0 -> 1 severed
  rt.post(1, [pb] { pb->do_send(0, 100); });  // delivered: 1 -> 0 intact
  ASSERT_TRUE(wait_for([&] { return a.received.load() >= 1; }));
  EXPECT_EQ(b.received.load(), 0);
  ASSERT_TRUE(wait_for([&] { return rt.stats(0).dropped >= 1; }));

  rt.heal(0, 1);
  rt.post(0, [pa] { pa->do_send(1, 100); });
  ASSERT_TRUE(wait_for([&] { return b.received.load() >= 1; }));
  rt.stop();
}

// Arms one nominal-delay timer on start and records when it ran.
class OneShot : public simnet::Process {
 public:
  OneShot(Time delay, std::atomic<int>& seq) : delay_(delay), seq_(seq) {}
  void on_start() override {
    after(delay_, [this] {
      order.store(seq_.fetch_add(1), std::memory_order_relaxed);
      fired.store(true, std::memory_order_release);
    });
  }
  void on_message(const Message&) override {}

  std::atomic<bool> fired{false};
  std::atomic<int> order{-1};

 private:
  Time delay_;
  std::atomic<int>& seq_;
};

TEST(ThreadedRuntime, ClockSkewAcceleratesTimerArming) {
  // Both nodes arm the same nominal 200 ms one-shot; node 1 runs at rate
  // 4.0, so its timer arms at ~50 ms wall while node 0's cannot fire
  // before 200 ms (timers never fire early). The 150 ms cushion
  // dwarfs scheduler jitter even on a loaded CI box — a rate-ratio
  // assertion here would flake under oversubscription, where wakeup
  // latency, not the armed delay, paces short timers.
  ThreadedRuntime rt(2, 1);
  std::atomic<int> seq{0};
  OneShot nominal(200 * kMillisecond, seq), skewed(200 * kMillisecond, seq);
  rt.attach(0, nominal);
  rt.attach(1, skewed);
  rt.set_clock_skew(1, /*rate=*/4.0, /*offset=*/0);
  rt.start();
  ASSERT_TRUE(wait_for([&] { return skewed.fired.load(); }));
  EXPECT_FALSE(nominal.fired.load())
      << "unskewed 200 ms timer fired within the skewed node's ~50 ms";
  ASSERT_TRUE(wait_for([&] { return nominal.fired.load(); }));
  EXPECT_LT(skewed.order.load(), nominal.order.load());
  rt.stop();
}

TEST(ThreadedRuntime, ManyNodesAllToAll) {
  constexpr int kN = 5;
  ThreadedRuntime rt(kN, 7);
  std::vector<std::unique_ptr<Echo>> procs;
  for (int i = 0; i < kN; ++i) {
    procs.push_back(std::make_unique<Echo>());
    rt.attach(static_cast<NodeId>(i), *procs.back());
  }
  rt.start();
  for (int i = 0; i < kN; ++i) {
    Echo* p = procs[static_cast<std::size_t>(i)].get();
    rt.post(static_cast<NodeId>(i), [p, i] {
      for (int d = 0; d < kN; ++d)
        if (d != i) p->do_send(static_cast<NodeId>(d), 0);
    });
  }
  ASSERT_TRUE(wait_for([&] {
    for (const auto& p : procs)
      if (p->received.load() < kN - 1) return false;
    return true;
  }));
  rt.stop();
  EXPECT_EQ(rt.total_stats().delivered,
            static_cast<std::uint64_t>(kN * (kN - 1)));
}

}  // namespace
}  // namespace canopus::runtime
