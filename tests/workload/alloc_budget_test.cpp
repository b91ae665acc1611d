// Allocation budget of the steady-state commit path, one per protocol
// (DESIGN.md §8.4).
//
// Each system runs the golden-digest deployment (3 groups x 3 servers, 2
// client machines, 20 000 req/s, seed 42) at 100% writes, twice: with a
// 200 ms and with a 600 ms measure window. Setup, warmup and drain are the
// same in both runs, so the difference of the two allocation counts over
// the difference of the requests sent is the marginal cost of one write.
// Each budget sits about 10% above the value measured when it was set.
//
// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be the binary's only definition of the global allocation functions.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.h"
#include "workload/trial.h"

namespace canopus::workload {
namespace {

struct Budget {
  System system;
  double allocs_per_write;  ///< measured 50.9, 5.43, 6.68 and 4.99
};

constexpr Budget kBudgets[] = {
    {System::kCanopus, 56.0},
    {System::kRaft, 6.0},
    {System::kZab, 7.3},
    {System::kEPaxos, 5.5},
};

struct Sample {
  std::uint64_t allocs = 0;
  std::uint64_t sent = 0;
};

Sample run(System system, Time measure) {
  TrialConfig tc;
  tc.system = system;
  tc.groups = 3;
  tc.per_group = 3;
  tc.client_machines = 2;
  tc.write_ratio = 1.0;
  tc.warmup = 50 * kMillisecond;
  tc.measure = measure;
  tc.drain = 100 * kMillisecond;
  tc.seed = 42;
  const std::uint64_t before = bench::heap_allocations();
  const TrialReport r =
      run_trial({tc, 20'000.0, derive_seed(tc.seed, 0xf19aULL)});
  return {bench::heap_allocations() - before, r.sent};
}

class AllocBudget : public ::testing::TestWithParam<Budget> {};

TEST_P(AllocBudget, SteadyStateWritesStayWithinBudget) {
  const Budget& b = GetParam();
  const Sample brief = run(b.system, 200 * kMillisecond);
  const Sample longer = run(b.system, 600 * kMillisecond);
  ASSERT_GT(longer.sent, brief.sent);
  const double per_write =
      static_cast<double>(longer.allocs - brief.allocs) /
      static_cast<double>(longer.sent - brief.sent);
  RecordProperty("allocs_per_write", std::to_string(per_write));
  EXPECT_LE(per_write, b.allocs_per_write) << system_name(b.system);
}

INSTANTIATE_TEST_SUITE_P(AllSystems, AllocBudget, ::testing::ValuesIn(kBudgets),
                         [](const auto& info) {
                           return std::string(system_name(info.param.system));
                         });

}  // namespace
}  // namespace canopus::workload
