// TrialPool mechanics and the harness determinism guarantee: an N-thread
// sweep over real simulations is bit-for-bit equal to the 1-thread sweep.
#include "workload/trial_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "workload/trial.h"

namespace canopus::workload {
namespace {

TEST(TrialPool, RunsEveryIndexExactlyOnce) {
  TrialPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.run_indexed(hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TrialPool, ReusableAcrossBatches) {
  TrialPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.run_indexed(round + 1, [&](std::size_t i) { sum += i + 1; });
    const std::size_t n = static_cast<std::size_t>(round) + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(TrialPool, ZeroTasksIsANoop) {
  TrialPool pool(2);
  pool.run_indexed(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(TrialPool, SingleThreadRunsInline) {
  TrialPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  pool.run_indexed(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // unsynchronized: must be inline
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TrialPool, DefaultThreadsIsAtLeastOne) {
  EXPECT_GE(TrialPool::default_threads(), 1u);
  TrialPool pool;  // must construct and destruct cleanly
  EXPECT_GE(pool.threads(), 1u);
}

TEST(TrialPool, PropagatesFirstException) {
  TrialPool pool(4);
  EXPECT_THROW(pool.run_indexed(16,
                                [](std::size_t i) {
                                  if (i == 7)
                                    throw std::runtime_error("trial failed");
                                }),
               std::runtime_error);
  // The pool must still be usable after a failed batch.
  std::atomic<int> ran{0};
  pool.run_indexed(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

// The determinism guarantee the whole bench harness rests on: a real
// multi-system sweep run on N worker threads equals the serial sweep
// bit for bit under the same seed, on both broadcast substrates. On the
// switch substrate this also checks that concurrent trials of one config
// deploy sequencers of their own.
TEST(TrialPool, RealSweepIsBitIdenticalAcrossThreadCounts) {
  for (const core::BroadcastKind kind :
       {core::BroadcastKind::kRaft, core::BroadcastKind::kSwitch}) {
    SCOPED_TRACE(kind == core::BroadcastKind::kRaft ? "raft broadcast"
                                                    : "switch broadcast");
    TrialConfig tc;
    tc.system = System::kCanopus;
    tc.canopus.broadcast = kind;
    tc.groups = 3;
    tc.per_group = 1;
    tc.client_machines = 1;
    tc.warmup = 50 * kMillisecond;
    tc.measure = 150 * kMillisecond;
    tc.drain = 50 * kMillisecond;
    tc.seed = 99;
    const TrialFn trial = make_trial(tc);
    const std::vector<double> rates{2'000, 5'000, 9'000, 14'000};

    const std::vector<Measurement> serial = sweep_rates(trial, rates);
    ASSERT_EQ(serial.size(), rates.size());
    for (const Measurement& m : serial) EXPECT_GT(m.completed, 0u);

    for (unsigned threads : {1u, 2u, 4u}) {
      TrialPool pool(threads);
      const std::vector<Measurement> par = sweep_rates(pool, trial, rates);
      ASSERT_EQ(par.size(), serial.size()) << threads << " threads";
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(par[i].offered, serial[i].offered) << threads << "t #" << i;
        EXPECT_EQ(par[i].throughput, serial[i].throughput)
            << threads << "t #" << i;
        EXPECT_EQ(par[i].median, serial[i].median) << threads << "t #" << i;
        EXPECT_EQ(par[i].p99, serial[i].p99) << threads << "t #" << i;
        EXPECT_EQ(par[i].mean, serial[i].mean) << threads << "t #" << i;
        EXPECT_EQ(par[i].completed, serial[i].completed)
            << threads << "t #" << i;
        EXPECT_EQ(par[i].failed, serial[i].failed) << threads << "t #" << i;
      }
    }
  }
}

}  // namespace
}  // namespace canopus::workload
