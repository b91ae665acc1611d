// The million-client workload plane: one RouterClient machine hosts 10^6
// sessions with O(1) state per session (one 64-bit cursor), so scaling the
// session count by ~1000x changes request *attribution* only — proven here
// with the global operator-new hook: the steady-state allocation count of a
// million-session trial is EXACTLY that of a thousand-session trial.
//
// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be defined in exactly one TU per binary — so this test links alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "bench/alloc_count.h"
#include "workload/sharded.h"

namespace canopus::workload {
namespace {

struct AllocProfile {
  std::uint64_t setup = 0;    ///< allocations before warmup ends
  std::uint64_t window = 0;   ///< allocations from warmup end to run end
  std::uint64_t completed = 0;
  std::uint64_t generated = 0;
  std::uint64_t sessions = 0;
};

// One sharded trial, manually staged so the allocation counter can be
// sampled at the warmup boundary. Everything except `sessions_per_machine`
// is held fixed; the RNG draw sequence is independent of the session count
// (the session pick costs one draw either way), so both profiles execute
// the same simulation events and differ only in request attribution.
AllocProfile run_with_sessions(std::uint32_t sessions_per_machine) {
  TrialConfig tc;
  tc.system = System::kRaft;
  tc.groups = 2;
  tc.per_group = 3;
  tc.client_machines = 1;  // 2 racks x 1 machine
  tc.key_dist = KeyDist::kZipfian;  // the skewed-popularity trial
  tc.num_keys = 1'000'000;
  tc.warmup = 200 * kMillisecond;
  tc.measure = 500 * kMillisecond;
  tc.drain = 300 * kMillisecond;

  const double rate = 4'000;
  const std::uint64_t trial_seed = derive_seed(tc.seed, 0x106aULL);
  simnet::Simulator sim(trial_seed);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  const auto groups = make_group_services(tc, cluster, net);
  auto rec = std::make_shared<LatencyRecorder>();
  rec->set_window(tc.warmup, tc.warmup + tc.measure);
  auto routers =
      attach_router_clients(tc, sessions_per_machine, cluster, net, rec, rate,
                            trial_seed, tc.warmup + tc.measure);

  AllocProfile p;
  const std::uint64_t at_start = bench::heap_allocations();
  sim.run_until(tc.warmup);
  const std::uint64_t at_warm = bench::heap_allocations();
  sim.run_until(tc.warmup + tc.measure + tc.drain);
  const std::uint64_t at_end = bench::heap_allocations();
  p.setup = at_warm - at_start;
  p.window = at_end - at_warm;
  p.completed = rec->completed();
  for (const auto& r : routers) {
    p.generated += r->generated();
    p.sessions += r->sessions();
  }
  return p;
}

TEST(MillionClients, SteadyStateAllocationsIndependentOfSessionCount) {
  // Prime the process-wide zipf table outside both profiles so neither
  // pays its one-time construction.
  ZipfTable::get(1'000'000, 0.99);

  const AllocProfile small = run_with_sessions(1'024);
  const AllocProfile million = run_with_sessions(500'000);

  ASSERT_EQ(small.sessions, 2'048u);
  ASSERT_EQ(million.sessions, 1'000'000u);

  // Identical simulations modulo attribution: same offered events...
  EXPECT_GT(small.completed, 0u);
  EXPECT_EQ(small.generated, million.generated);
  EXPECT_EQ(small.completed, million.completed);

  // ...and the load-bearing claim: not one extra steady-state allocation
  // for 488x the sessions. Per-session cost beyond the flat cursor array
  // would show up here multiplied by ~10^6.
  EXPECT_EQ(small.window, million.window)
      << "steady-state allocations scale with session count";

  // Setup differs only by O(1) allocations (the bigger cursor array is ONE
  // allocation; the group lists and per-group batches stay fixed).
  const std::uint64_t setup_delta = million.setup > small.setup
                                        ? million.setup - small.setup
                                        : small.setup - million.setup;
  EXPECT_LE(setup_delta, 16u);
}

}  // namespace
}  // namespace canopus::workload
