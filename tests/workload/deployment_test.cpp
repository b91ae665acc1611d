// Whole-stack smoke tests: every system runs under open-loop Poisson load
// on both topologies and completes requests with sane latencies.
#include "workload/trial.h"

#include <gtest/gtest.h>

namespace canopus::workload {
namespace {

TrialConfig base_single_dc(System s) {
  TrialConfig tc;
  tc.system = s;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.warmup = 300 * kMillisecond;
  tc.measure = 700 * kMillisecond;
  tc.drain = 500 * kMillisecond;
  return tc;
}

TEST(Deployment, CanopusSingleDcCompletesLoad) {
  Measurement m = run_trial(base_single_dc(System::kCanopus), 30'000);
  EXPECT_GT(m.completed, 10'000u);
  EXPECT_GT(m.throughput, 0.8 * m.offered);
  EXPECT_LT(m.median, 10 * kMillisecond);
}

TEST(Deployment, EPaxosSingleDcCompletesLoad) {
  Measurement m = run_trial(base_single_dc(System::kEPaxos), 30'000);
  EXPECT_GT(m.throughput, 0.8 * m.offered);
  EXPECT_LT(m.median, 20 * kMillisecond);
}

TEST(Deployment, ZabSingleDcCompletesLoad) {
  Measurement m = run_trial(base_single_dc(System::kZab), 30'000);
  EXPECT_GT(m.throughput, 0.8 * m.offered);
  EXPECT_LT(m.median, 10 * kMillisecond);
}

TEST(Deployment, CanopusReadLatencyBelowWriteHeavy) {
  // More reads -> higher Canopus throughput at the same offered load
  // headroom (reads are local). Sanity-check the mechanism: at the same
  // rate, a 100%-write workload generates more network bytes than 20%.
  TrialConfig tc = base_single_dc(System::kCanopus);
  tc.write_ratio = 0.2;
  Measurement light = run_trial(tc, 20'000);
  tc.write_ratio = 1.0;
  Measurement heavy = run_trial(tc, 20'000);
  EXPECT_GT(light.completed, 0u);
  EXPECT_GT(heavy.completed, 0u);
  // Both complete, but the write-heavy run can only be slower or equal.
  EXPECT_LE(light.median, heavy.median + kMillisecond);
}

TEST(Deployment, CanopusWanPipelinedCompletesLoad) {
  TrialConfig tc;
  tc.system = System::kCanopus;
  tc.wan = true;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.canopus.pipelining = true;
  tc.warmup = kSecond;  // several WAN RTTs
  tc.measure = kSecond;
  tc.drain = 1'500 * kMillisecond;
  Measurement m = run_trial(tc, 20'000);
  EXPECT_GT(m.throughput, 0.6 * m.offered);
  // Median ~ one wide-area consensus cycle: between 60 ms (one-way VA) and
  // a few hundred ms.
  EXPECT_GT(m.median, 30 * kMillisecond);
  EXPECT_LT(m.median, 600 * kMillisecond);
}

TEST(Deployment, EPaxosWanCompletesLoad) {
  TrialConfig tc;
  tc.system = System::kEPaxos;
  tc.wan = true;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.warmup = kSecond;
  tc.measure = kSecond;
  tc.drain = 1'500 * kMillisecond;
  Measurement m = run_trial(tc, 20'000);
  EXPECT_GT(m.throughput, 0.6 * m.offered);
  // EPaxos fast path: one WAN round trip to a fast quorum.
  EXPECT_GT(m.median, 30 * kMillisecond);
  EXPECT_LT(m.median, 600 * kMillisecond);
}

TEST(Deployment, FindMaxThroughputTerminates) {
  TrialConfig tc = base_single_dc(System::kCanopus);
  tc.measure = 500 * kMillisecond;
  auto res = find_max_throughput(make_trial(tc), 20'000, 2.0,
                                 10 * kMillisecond, 6);
  EXPECT_GT(res.max.throughput, 0.0);
  EXPECT_FALSE(res.sweep.empty());
  EXPECT_LE(res.sweep.size(), 6u);
}

TEST(Deployment, DeterministicAcrossRuns) {
  TrialConfig tc = base_single_dc(System::kCanopus);
  tc.measure = 400 * kMillisecond;
  Measurement a = run_trial(tc, 10'000);
  Measurement b = run_trial(tc, 10'000);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.median, b.median);
}

}  // namespace
}  // namespace canopus::workload
