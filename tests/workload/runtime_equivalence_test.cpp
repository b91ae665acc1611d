// Cross-backend digest equivalence (DESIGN.md §12): the same scripted
// command sequence driven through the discrete-event simulator and through
// runtime::ThreadedRuntime must produce identical per-server commit
// fingerprints on all four systems — kv::CommitDigest (ordered hash chain)
// for Canopus/Raft/Zab, kv::SetDigest (order-free) for EPaxos. This is the
// proof that the threaded backend runs the *same protocols*, not a port:
// any divergence in ordering, duplication or loss shows up as a digest
// mismatch.
#include "runtime/threaded_trial.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/threaded.h"
#include "workload/trial.h"

namespace canopus::workload {
namespace {

TrialConfig five_node_config(System sys, std::uint64_t seed) {
  TrialConfig tc;
  tc.system = sys;
  tc.groups = 1;  // single rack: 5 servers, height-1 LOT for Canopus
  tc.per_group = 5;
  tc.client_machines = 0;  // scripted submission only — no open-loop load
  tc.seed = seed;
  return tc;
}

void expect_equivalent(System sys, std::uint64_t seed, std::size_t k) {
  SCOPED_TRACE(testing::Message()
               << system_name(sys) << " seed=" << seed << " k=" << k);
  const TrialConfig tc = five_node_config(sys, seed);

  const ScriptResult sim = run_script_sim(tc, k);
  ASSERT_TRUE(sim.completed)
      << "simulated backend did not commit the full script";

  const ScriptResult thr = run_script_threads(tc, k);
  ASSERT_TRUE(thr.completed)
      << "threaded backend did not commit the full script within the "
         "wall-clock deadline";

  ASSERT_EQ(sim.fingerprint.size(), thr.fingerprint.size());
  for (std::size_t i = 0; i < sim.fingerprint.size(); ++i) {
    EXPECT_EQ(sim.committed[i], thr.committed[i]) << "server " << i;
    EXPECT_EQ(sim.fingerprint[i], thr.fingerprint[i]) << "server " << i;
  }
  // Every server of one backend also agrees with every server of the
  // other: with identical scripts the fingerprints are all one value.
  for (std::size_t i = 1; i < sim.fingerprint.size(); ++i)
    EXPECT_EQ(sim.fingerprint[0], sim.fingerprint[i]);
}

// run_trial's threaded dispatch end-to-end: open-loop Poisson clients,
// latency recorder and measurement window all running on real threads
// (the --runtime=threads path of the figure benches). Wall-clock, so only
// sanity shapes are asserted, not numbers.
TEST(RuntimeEquivalence, ThreadedTrialSmoke) {
  TrialConfig tc = five_node_config(System::kCanopus, 1);
  tc.client_machines = 2;
  tc.runtime = RuntimeKind::kThreads;
  tc.warmup = 150 * kMillisecond;
  tc.measure = 500 * kMillisecond;
  tc.drain = 150 * kMillisecond;
  const Measurement m = run_trial(tc, /*offered_rate=*/2000.0);
  EXPECT_GT(m.completed, 0u) << "no client request completed on threads";
  EXPECT_GT(m.median, 0);
}

// Snapshot catch-up on real threads (ISSUE 10): a server crashes, the
// survivors retire more history than its repair window retains, and on
// recovery the only path back is snapshot/state transfer — Raft
// InstallSnapshot, the Zab sync snapshot, the EPaxos gap escalation, the
// Canopus sponsored rejoin. Wall-clock and hardware-scheduled, so the test
// asserts shapes (a snapshot installed, digests converged), never timings.
// Mid-run observation goes through atomics fed by the service hooks;
// protocol state is read only after rt.stop()'s join barrier.
void expect_snapshot_catchup_threads(System sys) {
  SCOPED_TRACE(testing::Message() << system_name(sys));
  TrialConfig tc = five_node_config(sys, 7);
  // Retention windows small enough that the victim's gap overflows them.
  tc.raft.raft.compaction_threshold = 16;
  tc.raft.raft.compaction_keep = 4;
  tc.zab.history_depth = 16;
  tc.epaxos.repair_window = 8;

  simnet::Cluster cluster = build_cluster(tc);
  runtime::ThreadedRuntime rt(cluster.topo.num_nodes(), tc.seed);
  std::unique_ptr<ConsensusService> service = make_service(tc, cluster, rt);
  ASSERT_TRUE(service->supports_recover());

  const std::size_t n = service->num_servers();
  const std::size_t victim = n - 1;
  std::vector<std::atomic<std::uint64_t>> committed(n);
  std::atomic<bool> victim_snapshot{false};
  service->on_commit = [&](std::size_t i, std::uint64_t,
                           const std::vector<kv::Request>& batch) {
    committed[i].fetch_add(batch.size(), std::memory_order_relaxed);
  };
  // An install adopts the donor's prefix wholesale: the victim's count
  // restarts at the snapshot's, so the final wait below can only pass once
  // the victim really holds all 52 writes.
  service->on_snapshot_install = [&](std::size_t i, const kv::Snapshot& s) {
    if (i != victim) return;
    committed[i].store(s.digest_count, std::memory_order_relaxed);
    victim_snapshot.store(true, std::memory_order_relaxed);
  };

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto wait_for = [&](auto&& pred) {
    while (!pred() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return static_cast<bool>(pred());
  };
  std::uint64_t next_id = 0;
  const auto submit_writes = [&](std::uint64_t first_key, std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      kv::Request r;
      r.id = {kInvalidNode, ++next_id};
      r.is_write = true;
      r.key = first_key + i;
      r.value = 1000 + next_id;
      service->submit(0, r);
    }
  };

  rt.start();
  submit_writes(1, 8);
  ASSERT_TRUE(wait_for([&] {
    for (std::size_t i = 0; i < n; ++i)
      if (committed[i].load(std::memory_order_relaxed) < 8) return false;
    return true;
  })) << "initial writes did not commit everywhere";

  service->crash(victim);
  // Paced one-by-one: a tight submit burst would let the leader batch the
  // whole gap into a couple of log entries and never cross the compaction
  // threshold — catch-up would then ride plain replication and the test
  // would prove nothing. Each write waits until every survivor committed
  // it, so each occupies its own log slot / zxid / instance.
  for (std::size_t w = 0; w < 40; ++w) {
    submit_writes(100 + w, 1);
    ASSERT_TRUE(wait_for([&] {
      for (std::size_t i = 0; i < n; ++i)
        if (i != victim &&
            committed[i].load(std::memory_order_relaxed) < 9 + w)
          return false;
      return true;
    })) << "survivors did not absorb gap-opening write " << w;
  }

  ASSERT_TRUE(service->recover(victim));
  ASSERT_TRUE(wait_for([&] {
    return victim_snapshot.load(std::memory_order_relaxed);
  })) << "recovered node never installed a catch-up snapshot";

  // Post-snapshot, the victim rides normal replication again.
  submit_writes(500, 4);
  ASSERT_TRUE(wait_for([&] {
    for (std::size_t i = 0; i < n; ++i)
      if (committed[i].load(std::memory_order_relaxed) < 52) return false;
    return true;
  })) << "post-recovery writes did not reach every server";

  rt.stop();  // join = happens-before: protocol state is safe to read now
  EXPECT_GE(service->snapshots_installed(victim), 1u);
  EXPECT_TRUE(service->up(victim));
  EXPECT_TRUE(service->comparable(victim));
  EXPECT_EQ(service->committed_writes(victim),
            service->committed_writes(0));
  EXPECT_EQ(service->commit_fingerprint(victim),
            service->commit_fingerprint(0));
}

TEST(RuntimeEquivalence, SnapshotCatchupOnThreadsCanopus) {
  expect_snapshot_catchup_threads(System::kCanopus);
}
TEST(RuntimeEquivalence, SnapshotCatchupOnThreadsRaft) {
  expect_snapshot_catchup_threads(System::kRaft);
}
TEST(RuntimeEquivalence, SnapshotCatchupOnThreadsZab) {
  expect_snapshot_catchup_threads(System::kZab);
}
TEST(RuntimeEquivalence, SnapshotCatchupOnThreadsEPaxos) {
  expect_snapshot_catchup_threads(System::kEPaxos);
}

constexpr std::size_t kScript = 160;

TEST(RuntimeEquivalence, CanopusSeed1) {
  expect_equivalent(System::kCanopus, 1, kScript);
}
TEST(RuntimeEquivalence, CanopusSeed42) {
  expect_equivalent(System::kCanopus, 42, kScript);
}
TEST(RuntimeEquivalence, RaftSeed1) {
  expect_equivalent(System::kRaft, 1, kScript);
}
TEST(RuntimeEquivalence, RaftSeed42) {
  expect_equivalent(System::kRaft, 42, kScript);
}
TEST(RuntimeEquivalence, ZabSeed1) {
  expect_equivalent(System::kZab, 1, kScript);
}
TEST(RuntimeEquivalence, ZabSeed42) {
  expect_equivalent(System::kZab, 42, kScript);
}
TEST(RuntimeEquivalence, EPaxosSeed1) {
  expect_equivalent(System::kEPaxos, 1, kScript);
}
TEST(RuntimeEquivalence, EPaxosSeed42) {
  expect_equivalent(System::kEPaxos, 42, kScript);
}

}  // namespace
}  // namespace canopus::workload
