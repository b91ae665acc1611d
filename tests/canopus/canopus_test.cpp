// End-to-end protocol tests for Canopus over the simulated network.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "../testutil/canopus_harness.h"

namespace canopus::core {
namespace {

using testutil::CanopusCluster;

TEST(Canopus, SingleSuperLeafCommits) {
  CanopusCluster c(1, 3);
  c.write_at(kMillisecond, 0, /*key=*/7, /*val=*/42);
  c.sim().run_until(2 * kSecond);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.node(i).last_committed_cycle(), 1u) << i;
    EXPECT_EQ(c.node(i).store().read(7), 42u) << i;
  }
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, TwoSuperLeavesAgree) {
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 1, 100);
  c.write_at(kMillisecond, 4, 2, 200);
  c.sim().run_until(2 * kSecond);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_GE(c.node(i).last_committed_cycle(), 1u) << i;
    EXPECT_EQ(c.node(i).store().read(1), 100u) << i;
    EXPECT_EQ(c.node(i).store().read(2), 200u) << i;
  }
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, EmptySuperLeafStillParticipates) {
  // Only super-leaf 0 has clients; super-leaf 1 must be prompted into the
  // cycle via proposal-requests (§4.4) and commit the same order.
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 5, 55);
  c.sim().run_until(2 * kSecond);
  EXPECT_GE(c.node(3).last_committed_cycle(), 1u);
  EXPECT_EQ(c.node(5).store().read(5), 55u);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, AgreementUnderConcurrentLoad) {
  CanopusCluster c(3, 3);
  // Every node takes writes to overlapping keys across several cycles.
  for (int burst = 0; burst < 5; ++burst) {
    for (std::size_t i = 0; i < 9; ++i) {
      c.write_at((1 + burst * 40) * kMillisecond + static_cast<Time>(i),
                 i, /*key=*/i % 4, /*val=*/100 * static_cast<std::uint64_t>(burst) + i);
    }
  }
  c.sim().run_until(5 * kSecond);
  ASSERT_TRUE(c.all_agree());
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(c.node(i).committed_writes(), 45u) << i;
    EXPECT_GE(c.node(i).last_committed_cycle(), 5u);
  }
  // Same final KV state everywhere.
  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto v = c.node(0).store().read(k);
    for (std::size_t i = 1; i < 9; ++i)
      EXPECT_EQ(c.node(i).store().read(k), v) << "key " << k;
  }
}

TEST(Canopus, HeightThreeTreeAgrees) {
  // 4 super-leaves of 2, arity 2 -> height 3: exercises multi-round fetch.
  CanopusCluster c(4, 2, {}, 42, /*arity=*/2);
  ASSERT_EQ(c.lot()->height(), 3);
  for (std::size_t i = 0; i < 8; ++i)
    c.write_at(kMillisecond, i, i, i * 10);
  c.sim().run_until(3 * kSecond);
  ASSERT_TRUE(c.all_agree());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(c.node(i).committed_writes(), 8u) << i;
    for (std::uint64_t k = 0; k < 8; ++k)
      EXPECT_EQ(c.node(i).store().read(k), k * 10) << i;
  }
}

TEST(Canopus, FifoOrderPerClient) {
  // One client pushes sequential writes to the same node; the committed
  // order must respect submission order (same-node requests keep arrival
  // order, §4).
  CanopusCluster c(2, 3);
  std::vector<std::uint64_t> committed_vals;
  c.node(0).on_commit = [&](CycleId, const std::vector<kv::Request>& ws) {
    for (const auto& w : ws)
      if (w.key == 9) committed_vals.push_back(w.value);
  };
  for (std::uint64_t i = 0; i < 10; ++i)
    c.write_at(kMillisecond + static_cast<Time>(i * 10), 0, 9, i,
               /*client=*/kInvalidNode, /*seq=*/i);
  c.sim().run_until(3 * kSecond);
  ASSERT_EQ(committed_vals.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(committed_vals[i], i);
  // Final value is the last write.
  EXPECT_EQ(c.node(4).store().read(9), 9u);
}

TEST(Canopus, ReadsObserveOwnPrecedingWrite) {
  // Read submitted after a write to the same node must see that write
  // (program order within the request set, §5).
  CanopusCluster c(2, 3);
  std::uint64_t read_value = 1234567;
  // Intercept the read completion via the commit hook being too coarse; use
  // served reads counter + store state instead: submit write then read
  // back-to-back before any cycle ends.
  c.write_at(kMillisecond, 2, 77, 777);
  c.read_at(kMillisecond + 1, 2, 77);
  c.sim().run_until(3 * kSecond);
  EXPECT_EQ(c.node(2).served_reads(), 1u);
  read_value = c.node(2).store().read(77);
  EXPECT_EQ(read_value, 777u);
}

TEST(Canopus, ReadOnlyNodeStillGetsLinearized) {
  // A node with only reads produces an empty proposal; its reads execute at
  // the empty set's position in the total order (§5).
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 3, 33);
  c.read_at(2 * kMillisecond, 5, 3);
  c.sim().run_until(3 * kSecond);
  EXPECT_EQ(c.node(5).served_reads(), 1u);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, CommitsAreCycleOrdered) {
  CanopusCluster c(2, 3);
  std::vector<CycleId> order;
  c.node(1).on_commit = [&](CycleId cy, const std::vector<kv::Request>&) {
    order.push_back(cy);
  };
  for (int b = 0; b < 6; ++b)
    c.write_at((1 + 30 * b) * kMillisecond, 1, static_cast<std::uint64_t>(b),
               1);
  c.sim().run_until(3 * kSecond);
  ASSERT_GE(order.size(), 2u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(order[i], order[i - 1] + 1);
}

TEST(Canopus, NodeFailureExcludedAndProtocolContinues) {
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 1, 11);
  c.sim().run_until(kSecond);
  ASSERT_TRUE(c.all_agree());

  // Crash a non-representative member of super-leaf 0 (k=2 reps: nodes
  // 0 and 1 by default ordering, so node 2 is safe to kill).
  c.crash(2);
  c.sim().run_until(3 * kSecond);  // allow detection

  // The protocol keeps committing.
  c.write_at(c.sim().now(), 0, 2, 22);
  c.write_at(c.sim().now(), 3, 3, 33);
  c.sim().run_until(c.sim().now() + 2 * kSecond);
  EXPECT_EQ(c.node(0).store().read(2), 22u);
  EXPECT_EQ(c.node(0).store().read(3), 33u);
  EXPECT_EQ(c.node(5).store().read(2), 22u);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, FailedNodeRemovedFromRemoteEmulationTables) {
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 1, 11);
  c.sim().run_until(kSecond);

  c.crash(2);
  c.sim().run_until(4 * kSecond);
  // Drive another cycle so the membership update disseminates.
  c.write_at(c.sim().now(), 0, 2, 22);
  c.sim().run_until(c.sim().now() + 2 * kSecond);

  // A node in the *other* super-leaf no longer lists the dead node as an
  // emulator (§4.6).
  const auto& emu = c.node(4).emulation_table();
  EXPECT_FALSE(emu.is_live(c.server(2)));
}

TEST(Canopus, RepresentativeFailurePromotesReplacement) {
  CanopusCluster c(2, 4);
  c.write_at(kMillisecond, 0, 1, 11);
  c.sim().run_until(kSecond);
  ASSERT_TRUE(c.node(0).is_representative());

  c.crash(0);  // kill representative-0 of super-leaf 0
  c.sim().run_until(4 * kSecond);
  c.write_at(c.sim().now(), 1, 2, 22);
  c.sim().run_until(c.sim().now() + 4 * kSecond);

  EXPECT_EQ(c.node(1).store().read(2), 22u);
  EXPECT_EQ(c.node(5).store().read(2), 22u);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, SuperLeafMajorityFailureStallsEveryone) {
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 1, 11);
  c.sim().run_until(kSecond);
  const CycleId committed_before = c.node(3).last_committed_cycle();

  // Kill 2 of 3 members of super-leaf 0: the super-leaf fails (2F+1 with
  // F=1). Canopus must stall — and never return a wrong result (§6).
  c.crash(0);
  c.crash(1);
  c.write_at(c.sim().now() + kMillisecond, 3, 2, 22);
  c.sim().run_until(c.sim().now() + 8 * kSecond);

  // Super-leaf 1 cannot finish any cycle that requires super-leaf 0's
  // state: at most one more cycle may have been in flight.
  EXPECT_LE(c.node(3).last_committed_cycle(), committed_before + 1);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, StalledNodesResumeNothingButStayConsistent) {
  CanopusCluster c(2, 3);
  c.write_at(kMillisecond, 0, 1, 11);
  c.sim().run_until(kSecond);
  c.crash(0);
  c.crash(1);
  c.crash(2);  // whole super-leaf 0 gone
  c.write_at(c.sim().now() + kMillisecond, 4, 9, 99);
  c.sim().run_until(c.sim().now() + 8 * kSecond);
  // The write is buffered or in a stalled cycle, never half-committed on
  // some nodes only.
  const auto c3 = c.node(3).committed_writes();
  const auto c4 = c.node(4).committed_writes();
  const auto c5 = c.node(5).committed_writes();
  EXPECT_EQ(c3, c4);
  EXPECT_EQ(c4, c5);
  EXPECT_TRUE(c.all_agree());
}

TEST(Canopus, RejoinInstallsSnapshotAndConverges) {
  // The sponsored rejoin (DESIGN.md §14.1): a recovered node installs a
  // live sibling's snapshot (kv::Store export/restore), catches up and
  // ends with the same store and commit chain as everyone else.
  CanopusCluster c(3, 3);
  for (std::uint64_t i = 0; i < 200; ++i)
    c.write_at(kMillisecond + static_cast<Time>(i) * 200 * kMicrosecond,
               i % 9, /*key=*/i % 64, /*val=*/i);
  c.sim().at(50 * kMillisecond, [&c] { c.crash(1); });
  c.sim().at(2 * kSecond, [&c] { c.recover(1); });
  for (std::uint64_t i = 0; i < 100; ++i)
    c.write_at(2100 * kMillisecond + static_cast<Time>(i) * kMillisecond,
               i % 9, /*key=*/1000 + i, /*val=*/i);
  c.sim().run_until(5 * kSecond);

  const CanopusNode& n1 = c.node(1);
  EXPECT_FALSE(n1.joining());
  EXPECT_EQ(n1.snapshots_installed(), 1u);
  EXPECT_TRUE(c.all_agree());
  EXPECT_EQ(n1.store().export_image(), c.node(0).store().export_image());
  EXPECT_EQ(n1.committed_writes(), c.node(0).committed_writes());
}

TEST(Canopus, PipelinedMultiDcCommitsInOrder) {
  core::Config cfg;
  cfg.pipelining = true;
  cfg.cycle_interval = 5 * kMillisecond;
  auto c = CanopusCluster::multi_dc(3, 3, cfg);
  std::vector<CycleId> order;
  c.node(0).on_commit = [&](CycleId cy, const std::vector<kv::Request>&) {
    order.push_back(cy);
  };
  // Continuous writes for 400 ms: with ~133-226 ms inter-DC RTTs and 5 ms
  // cycles, many cycles must be in flight concurrently.
  for (Time t = kMillisecond; t < 400 * kMillisecond; t += kMillisecond)
    c.write_at(t, static_cast<std::size_t>(t / kMillisecond) % 9,
               static_cast<std::uint64_t>(t), 1);
  c.sim().run_until(3 * kSecond);

  ASSERT_GE(order.size(), 10u);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_EQ(order[i], order[i - 1] + 1);
  EXPECT_TRUE(c.all_agree());
  // Pipelining actually overlapped cycles: total cycles committed in ~400ms
  // of traffic far exceeds what sequential ~200ms cycles would allow (~3).
  EXPECT_GE(order.size(), 20u);
}

TEST(Canopus, PipeliningRaisesThroughputOverSequential) {
  // Same WAN workload with and without pipelining; pipelining must commit
  // substantially more cycles (the motivation for §7.1).
  auto run = [](bool pipe) {
    core::Config cfg;
    cfg.pipelining = pipe;
    auto c = CanopusCluster::multi_dc(3, 3, cfg);
    std::uint64_t commits = 0;
    c.node(0).on_commit = [&](CycleId, const std::vector<kv::Request>&) {
      ++commits;
    };
    for (Time t = kMillisecond; t < 500 * kMillisecond; t += kMillisecond)
      c.write_at(t, static_cast<std::size_t>(t / kMillisecond) % 9,
                 static_cast<std::uint64_t>(t), 1);
    c.sim().run_until(3 * kSecond);
    return commits;
  };
  const auto sequential = run(false);
  const auto pipelined = run(true);
  EXPECT_GT(pipelined, 3 * sequential);
}

TEST(Canopus, WriteLeaseServesUncontendedReadImmediately) {
  core::Config cfg;
  cfg.write_leases = true;
  CanopusCluster c(2, 3, cfg);
  // Key 50 has never been written: read must be served without consensus.
  c.read_at(kMillisecond, 0, 50);
  c.sim().run_until(10 * kMillisecond);  // far less than a cycle
  EXPECT_EQ(c.node(0).served_reads(), 1u);
}

TEST(Canopus, WriteLeaseDelaysContendedRead) {
  core::Config cfg;
  cfg.write_leases = true;
  cfg.lease_cycles = 100;  // keep the lease active for the whole test
  CanopusCluster c(2, 3, cfg);
  c.write_at(kMillisecond, 0, 60, 600);
  c.sim().run_until(kSecond);
  ASSERT_GE(c.node(0).last_committed_cycle(), 1u);

  // Lease for key 60 is now active: a read must go through the delay path
  // (it completes only after another consensus cycle).
  c.read_at(c.sim().now(), 1, 60);
  c.sim().run_until(c.sim().now() + kSecond);
  EXPECT_EQ(c.node(1).served_reads(), 1u);
  EXPECT_EQ(c.node(1).store().read(60), 600u);
  // And an uncontended key is still instant.
  const auto before = c.node(1).served_reads();
  c.read_at(c.sim().now(), 1, 61);
  c.sim().run_until(c.sim().now() + 5 * kMillisecond);
  EXPECT_EQ(c.node(1).served_reads(), before + 1);
}

TEST(Canopus, DeterministicAcrossSeeds) {
  auto run = [](std::uint64_t seed) {
    CanopusCluster c(2, 3, {}, seed);
    for (std::size_t i = 0; i < 6; ++i) c.write_at(kMillisecond, i, i, i);
    c.sim().run_until(2 * kSecond);
    return c.node(0).digest().value();
  };
  EXPECT_EQ(run(7), run(7));
  // Different seed likely produces a different proposal order.
  EXPECT_TRUE(run(7) != run(8) || true);  // ordering may coincide; no assert
}

TEST(Canopus, LargeClusterTwentySevenNodes) {
  // The paper's largest single-DC config: 3 super-leaves x 9 nodes.
  CanopusCluster c(3, 9);
  for (std::size_t i = 0; i < 27; ++i)
    c.write_at(kMillisecond + static_cast<Time>(i), i, i, i + 1000);
  c.sim().run_until(5 * kSecond);
  ASSERT_TRUE(c.all_agree());
  for (std::size_t i = 0; i < 27; ++i)
    EXPECT_EQ(c.node(i).committed_writes(), 27u) << i;
}

}  // namespace
}  // namespace canopus::core
