#include "epaxos/epaxos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "testutil/replica_cluster.h"

namespace canopus::epaxos {
namespace {

class EPaxosTest : public testutil::ReplicaClusterTest<EPaxosNode, Config> {};

TEST_F(EPaxosTest, CommitsAndExecutesEverywhere) {
  build(3);
  write_at(kMillisecond, 0, 7, 77);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->store().read(7), 77u);
    EXPECT_GE(n->executed_requests(), 1u);
  }
}

TEST_F(EPaxosTest, BatchingDelaysFlush) {
  Config cfg;
  cfg.batch_interval = 5 * kMillisecond;
  build(3, cfg);
  Time executed_at = 0;
  nodes_[0]->on_commit = [&](std::uint64_t, const std::vector<kv::Request>&) {
    if (executed_at == 0) executed_at = sim_->now();
  };
  write_at(kMillisecond, 0, 1, 1);
  sim_->run_until(kSecond);
  // Batch flushes 5 ms after submission; commit needs one in-rack RTT.
  EXPECT_GE(executed_at, 6 * kMillisecond);
  EXPECT_LE(executed_at, 8 * kMillisecond);
}

TEST_F(EPaxosTest, MultipleLeadersAllExecute) {
  build(5);
  for (int i = 0; i < 5; ++i)
    write_at(kMillisecond, i, static_cast<std::uint64_t>(i), 100 + i);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) {
    for (std::uint64_t k = 0; k < 5; ++k)
      EXPECT_EQ(n->store().read(k), 100 + k);
    EXPECT_EQ(n->executed_requests(), 5u);
  }
}

TEST_F(EPaxosTest, ReadsTravelThroughProtocol) {
  build(3);
  write_at(kMillisecond, 0, 9, 99);
  sim_->run_until(200 * kMillisecond);
  // A read goes through a full instance; it executes (counted) and can be
  // observed via on_commit at remote replicas too.
  int read_seen_remote = 0;
  nodes_[1]->on_commit = [&](std::uint64_t,
                             const std::vector<kv::Request>& batch) {
    for (const auto& r : batch)
      if (!r.is_write) ++read_seen_remote;
  };
  sim_->at(sim_->now(), [this] {
    kv::Request r;
    r.is_write = false;
    r.key = 9;
    r.arrival = sim_->now();
    nodes_[2]->submit(r);
  });
  sim_->run_until(sim_->now() + kSecond);
  EXPECT_EQ(read_seen_remote, 1);
}

TEST_F(EPaxosTest, SingleReplicaDegenerate) {
  build(1);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[0]->store().read(1), 11u);
}

TEST_F(EPaxosTest, FastQuorumSizes) {
  // N=3: F=1, fq=2. N=5: F=2, fq=3. N=9: F=4, fq=6. (EPaxos paper.)
  build(3);
  // Validate indirectly: with 3 replicas, killing one still commits.
  net_->crash(cluster_.servers[2]);
  write_at(kMillisecond, 0, 5, 55);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[0]->store().read(5), 55u);
  EXPECT_EQ(nodes_[1]->store().read(5), 55u);
}

TEST_F(EPaxosTest, BelowFastQuorumStalls) {
  build(3);
  net_->crash(cluster_.servers[1]);
  net_->crash(cluster_.servers[2]);
  write_at(kMillisecond, 0, 5, 55);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[0]->store().read(5), 0u);  // never committed
}

TEST_F(EPaxosTest, PartitionedReplicaRepairsMissedInstances) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  build(5, cfg);
  // Replica 4 misses everything from replica 0 during a one-way partition;
  // the commit of a later instance reveals the gap and repair fetches the
  // missed batches back.
  net_->sever(cluster_.servers[0], cluster_.servers[4]);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(100 * kMillisecond);
  EXPECT_EQ(nodes_[4]->store().read(1), 0u);
  net_->heal(cluster_.servers[0], cluster_.servers[4]);
  write_at(150 * kMillisecond, 0, 2, 22);  // post-heal traffic reveals gap
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[4]->store().read(1), 11u);
  EXPECT_EQ(nodes_[4]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[4]->set_digest() == nodes_[0]->set_digest());
}

TEST_F(EPaxosTest, CrashedReplicaResyncsOnRecovery) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  build(5, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[4]);
    nodes_[4]->crash();
  });
  write_at(50 * kMillisecond, 0, 1, 11);
  write_at(60 * kMillisecond, 1, 2, 22);
  sim_->run_until(300 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[4]);
    nodes_[4]->recover();  // probes peers for missed instances
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[4]->store().read(1), 11u);
  EXPECT_EQ(nodes_[4]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[4]->set_digest() == nodes_[0]->set_digest());
}

TEST_F(EPaxosTest, RecoveredLeaderRetransmitsItsOwnInFlightInstances) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  build(3, cfg);
  // The acks (not the PreAccepts) are lost, then the leader crashes with
  // its own instance in flight and recovers into an otherwise IDLE
  // cluster: no other leader ever commits, so SeqProbe replies report no
  // gaps — only the own-instance retransmit loop can finish the commit.
  net_->sever(cluster_.servers[1], cluster_.servers[0]);
  net_->sever(cluster_.servers[2], cluster_.servers[0]);
  write_at(kMillisecond, 0, 9, 99);
  sim_->run_until(50 * kMillisecond);
  EXPECT_EQ(nodes_[0]->store().read(9), 0u);  // below fast quorum
  sim_->at(sim_->now(), [this] {
    net_->crash(cluster_.servers[0]);
    nodes_[0]->crash();
  });
  sim_->run_until(60 * kMillisecond);
  net_->heal(cluster_.servers[1], cluster_.servers[0]);
  net_->heal(cluster_.servers[2], cluster_.servers[0]);
  sim_->at(100 * kMillisecond, [this] {
    net_->recover(cluster_.servers[0]);
    nodes_[0]->recover();
  });
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(9), 99u);
  EXPECT_TRUE(nodes_[0]->set_digest() == nodes_[1]->set_digest());
}

TEST_F(EPaxosTest, PreAcceptRetransmitCannotDoubleCountAcks) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  build(5, cfg);
  // Sever the leader's path to 3 of 4 peers: the one remaining ok (plus
  // the leader's implicit vote) is below the fast quorum of 3, and the
  // retransmit path must not commit by counting a re-acked peer twice.
  net_->sever(cluster_.servers[0], cluster_.servers[2]);
  net_->sever(cluster_.servers[0], cluster_.servers[3]);
  net_->sever(cluster_.servers[0], cluster_.servers[4]);
  write_at(kMillisecond, 0, 5, 55);
  sim_->run_until(500 * kMillisecond);  // many retransmit rounds
  EXPECT_EQ(nodes_[0]->store().read(5), 0u);  // still below fast quorum
  // Heal: the next retransmission completes the quorum.
  net_->heal(cluster_.servers[0], cluster_.servers[2]);
  net_->heal(cluster_.servers[0], cluster_.servers[3]);
  net_->heal(cluster_.servers[0], cluster_.servers[4]);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(5), 55u);
}

TEST_F(EPaxosTest, SetDigestOrderInsensitive) {
  kv::SetDigest a, b;
  kv::Request r1, r2;
  r1.is_write = r2.is_write = true;
  r1.key = 1, r1.value = 11;
  r2.key = 2, r2.value = 22;
  a.append(r1);
  a.append(r2);
  b.append(r2);
  b.append(r1);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count(), 2u);
  kv::SetDigest c;
  c.append(r1);
  EXPECT_FALSE(a == c);
}

// --- repair ring + snapshot escalation (ISSUE 10) -------------------------

// The regression for the silent catch-up stall: a replica crashes long
// enough for the survivors to retire more instances than the repair ring
// (repair_window = 4) retains. Gap repair cannot fetch those instances from
// anyone, so it must escalate to a snapshot — and converge.
TEST_F(EPaxosTest, LongCrashedReplicaEscalatesToSnapshot) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  cfg.repair_window = 4;
  build(5, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[4]);
    nodes_[4]->crash();
  });
  for (int i = 0; i < 24; ++i)  // 24 instances >> window of 4
    write_at((50 + 5 * i) * kMillisecond, i % 4, 100 + i, 1000 + i);
  sim_->run_until(500 * kMillisecond);
  EXPECT_LE(nodes_[0]->log_entries_retained(), 4u);  // ring stayed bounded
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[4]);
    nodes_[4]->recover();
  });
  sim_->run_until(2 * kSecond);
  EXPECT_GE(nodes_[4]->snapshots_installed(), 1u);
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(nodes_[4]->store().read(100 + i), 1000u + i);
  EXPECT_TRUE(nodes_[4]->set_digest() == nodes_[0]->set_digest());
}

// A short outage — fewer missed instances than the window — repairs from
// the ring as before; no snapshot ships.
TEST_F(EPaxosTest, ShortGapRepairsFromRingWithoutSnapshot) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  cfg.repair_window = 64;
  build(5, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[4]);
    nodes_[4]->crash();
  });
  write_at(50 * kMillisecond, 0, 1, 11);
  write_at(60 * kMillisecond, 1, 2, 22);
  sim_->run_until(300 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[4]);
    nodes_[4]->recover();
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[4]->snapshots_installed(), 0u);
  EXPECT_EQ(nodes_[4]->store().read(1), 11u);
  EXPECT_EQ(nodes_[4]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[4]->set_digest() == nodes_[0]->set_digest());
}

TEST_F(EPaxosTest, InterferingInstancesExecuteInDependencyOrder) {
  Config cfg;
  cfg.interference = 1.0;  // every instance conflicts
  build(3, cfg);
  for (int i = 0; i < 4; ++i)
    write_at(kMillisecond + static_cast<Time>(i) * 20 * kMillisecond, 0, 1,
             static_cast<std::uint64_t>(i));
  sim_->run_until(2 * kSecond);
  // Same leader, sequential dependencies: final value is the last write.
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(1), 3u);
}

// A fan-out puts one payload on the wire (DESIGN.md §5.2): an instance's
// PreAccepts, and then its Commits, are one shared value each.
TEST_F(EPaxosTest, FanOutSharesOnePayload) {
  build(5);
  std::vector<simnet::Payload> pre_accepts, commits;
  net_->set_trace([&](Time, const simnet::Message& m) {
    if (m.as<PreAccept>() != nullptr) pre_accepts.push_back(m.payload());
    if (m.as<Commit>() != nullptr) commits.push_back(m.payload());
  });
  write_at(kMillisecond, 0, 7, 77);
  sim_->run_until(kSecond);
  auto distinct = [](const std::vector<simnet::Payload>& v) {
    std::set<const void*> ids;
    for (const simnet::Payload& p : v) ids.insert(p.raw());
    return ids.size();
  };
  EXPECT_EQ(pre_accepts.size(), 4u);
  EXPECT_EQ(distinct(pre_accepts), 1u);
  EXPECT_EQ(commits.size(), 4u);
  EXPECT_EQ(distinct(commits), 1u);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(7), 77u);
}

// An acceptor sends its PreAcceptOks to a leader through a memo of the last
// one (DESIGN.md §5.2): once the leader has dropped an ack, the next ack
// rewrites the same block. The trace keeps only the block's address, since
// a held copy would make the memo refuse the rewrite.
TEST_F(EPaxosTest, PreAcceptOksToOneLeaderShareOneBlock) {
  build(3);
  const NodeId leader = cluster_.servers[0];
  const NodeId acceptor = cluster_.servers[1];
  std::vector<const void*> blocks;
  net_->set_trace([&](Time, const simnet::Message& m) {
    if (m.as<PreAcceptOk>() != nullptr && m.src() == acceptor &&
        m.dst() == leader)
      blocks.push_back(m.payload().raw());
  });
  // One instance per write: each flushes 5 ms after it arrives, and its
  // ack is delivered long before the next one is sent.
  for (int i = 0; i < 4; ++i)
    write_at((1 + 20 * i) * kMillisecond, 0, 1 + i, 10 + i);
  sim_->run_until(kSecond);
  ASSERT_EQ(blocks.size(), 4u);
  EXPECT_EQ(std::set<const void*>(blocks.begin(), blocks.end()).size(), 1u);
  for (auto& n : nodes_) EXPECT_EQ(n->executed_requests(), 4u);
}

// The same acks while something else holds each one: no rewrite, so every
// ack is a fresh block.
TEST_F(EPaxosTest, HeldPreAcceptOkGetsAFreshBlock) {
  build(3);
  const NodeId leader = cluster_.servers[0];
  const NodeId acceptor = cluster_.servers[1];
  std::vector<simnet::Payload> held;
  net_->set_trace([&](Time, const simnet::Message& m) {
    if (m.as<PreAcceptOk>() != nullptr && m.src() == acceptor &&
        m.dst() == leader)
      held.push_back(m.payload());
  });
  for (int i = 0; i < 4; ++i)
    write_at((1 + 20 * i) * kMillisecond, 0, 1 + i, 10 + i);
  sim_->run_until(kSecond);
  ASSERT_EQ(held.size(), 4u);
  std::set<const void*> blocks;
  for (const simnet::Payload& p : held) blocks.insert(p.raw());
  EXPECT_EQ(blocks.size(), 4u);
  for (std::size_t i = 0; i < held.size(); ++i)
    EXPECT_EQ(held[i].as<PreAcceptOk>()->id.seq, i + 1);
}

// A leader's lane (DESIGN.md §7.3) outgrows its first 8 slots while the
// fast quorum stalls, with its window already wrapped past the ring's
// start, and wraps again once the stall heals and pruning resumes. Every
// replica still executes every instance exactly once, and the repair ring
// stays bounded throughout.
TEST_F(EPaxosTest, LanesGrowAndWrapAcrossAStalledQuorum) {
  Config cfg;
  cfg.repair_retry = 20 * kMillisecond;
  cfg.repair_window = 4;
  build(5, cfg);
  std::size_t retained = 0;
  for (Time t = 10 * kMillisecond; t < 3 * kSecond; t += 10 * kMillisecond)
    sim_->at(t, [&] {
      for (auto& n : nodes_)
        retained = std::max(retained, n->log_entries_retained());
    });
  int writes = 0;
  const auto write_run = [&](Time from, int count) {
    for (int i = 0; i < count; ++i, ++writes)
      write_at(from + static_cast<Time>(i) * 10 * kMillisecond, 0,
               static_cast<std::uint64_t>(100 + writes),
               static_cast<std::uint64_t>(1000 + writes));
  };
  // 6 instances commit normally and are pruned behind the window.
  write_run(kMillisecond, 6);
  sim_->run_until(100 * kMillisecond);
  // The leader reaches 1 of 4 acceptors: its ack and the leader's own
  // vote are below the fast quorum of 3, so 20 instances stall.
  for (int peer = 2; peer < 5; ++peer)
    net_->sever(cluster_.servers[0], cluster_.servers[peer]);
  write_run(100 * kMillisecond, 20);
  sim_->run_until(400 * kMillisecond);
  EXPECT_EQ(nodes_[0]->executed_requests(), 6u);
  for (int peer = 2; peer < 5; ++peer)
    net_->heal(cluster_.servers[0], cluster_.servers[peer]);
  // Retransmits finish the stalled instances; 40 more wrap the lanes.
  write_run(400 * kMillisecond, 40);
  sim_->run_until(3 * kSecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->executed_requests(), static_cast<std::uint64_t>(writes));
    EXPECT_TRUE(n->set_digest() == nodes_[0]->set_digest());
    EXPECT_EQ(n->set_digest().count(), static_cast<std::uint64_t>(writes));
    for (int i = 0; i < writes; ++i)
      EXPECT_EQ(n->store().read(100 + static_cast<std::uint64_t>(i)),
                1000u + static_cast<std::uint64_t>(i));
  }
  EXPECT_GT(retained, 0u);
  EXPECT_LE(retained, cfg.repair_window);
}

}  // namespace
}  // namespace canopus::epaxos
