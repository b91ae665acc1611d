// Standalone Raft KV deployment: replication, forwarding, leader failover
// and crash-recovery repair.
#include "raft/raft_kv.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testutil/replica_cluster.h"

namespace canopus::raft {
namespace {

class RaftKvTest : public testutil::ReplicaClusterTest<RaftKvNode, Options> {};

TEST_F(RaftKvTest, BootstrapLeaderIsNodeZero) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  EXPECT_TRUE(nodes_[0]->is_leader());
  EXPECT_FALSE(nodes_[1]->is_leader());
}

TEST_F(RaftKvTest, LeaderWriteReplicatesToAll) {
  build(3);
  write_at(kMillisecond, 0, 7, 77);
  sim_->run_until(500 * kMillisecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->store().read(7), 77u);
    EXPECT_EQ(n->committed_writes(), 1u);
  }
}

TEST_F(RaftKvTest, FollowerForwardsToLeader) {
  build(5);
  write_at(kMillisecond, 3, 1, 11);
  write_at(kMillisecond, 4, 2, 22);
  sim_->run_until(500 * kMillisecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->store().read(1), 11u);
    EXPECT_EQ(n->store().read(2), 22u);
    EXPECT_TRUE(n->digest() == nodes_[0]->digest());
  }
}

TEST_F(RaftKvTest, ReadsServedLocally) {
  build(3);
  write_at(kMillisecond, 0, 5, 55);
  sim_->at(300 * kMillisecond, [this] {
    kv::Request r;
    r.is_write = false;
    r.key = 5;
    nodes_[2]->submit(r);
  });
  sim_->run_until(500 * kMillisecond);
  EXPECT_EQ(nodes_[2]->served_reads(), 1u);
}

TEST_F(RaftKvTest, LeaderCrashTriggersFailoverAndWritesContinue) {
  build(5);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(200 * kMillisecond);
  crash(0);
  // A new leader is elected; a follower-submitted write still commits.
  write_at(kSecond, 2, 2, 22);
  sim_->run_until(3 * kSecond);
  int leaders = 0;
  for (auto& n : nodes_) {
    if (n->crashed()) continue;
    if (n->is_leader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    EXPECT_EQ(nodes_[i]->store().read(2), 22u) << "node " << i;
    EXPECT_TRUE(nodes_[i]->digest() == nodes_[1]->digest());
  }
}

TEST_F(RaftKvTest, RecoveredNodeIsRepairedByLog) {
  build(5);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(200 * kMillisecond);
  crash(4);
  write_at(300 * kMillisecond, 0, 2, 22);
  write_at(400 * kMillisecond, 1, 3, 33);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[4]->store().read(2), 0u);  // missed while down
  recover(4);
  sim_->run_until(3 * kSecond);
  EXPECT_EQ(nodes_[4]->store().read(2), 22u);
  EXPECT_EQ(nodes_[4]->store().read(3), 33u);
  EXPECT_TRUE(nodes_[4]->digest() == nodes_[0]->digest());
}

// --- log compaction + InstallSnapshot (ISSUE 10) --------------------------

// Committed prefix past compaction_threshold is folded into the KV
// snapshot; the in-memory log stays bounded regardless of how much history
// the cluster retires.
TEST_F(RaftKvTest, CompactionBoundsTheLogUnderLoad) {
  Options opt;
  opt.compaction_threshold = 16;
  opt.compaction_keep = 4;
  build(3, opt);
  for (int i = 0; i < 60; ++i)
    write_at((static_cast<Time>(i) + 1) * 5 * kMillisecond, 0, 100 + i,
             1000 + i);
  sim_->run_until(2 * kSecond);
  for (auto& n : nodes_) {
    EXPECT_LE(n->log_entries_retained(), 16u + 4u);
    EXPECT_EQ(n->store().read(159), 1059u);  // state survives compaction
    EXPECT_TRUE(n->digest() == nodes_[0]->digest());
  }
}

// A follower that slept through compaction cannot be repaired from the log
// — the entries it needs are gone. The leader must ship InstallSnapshot,
// then resume normal replication from the snapshot frontier.
TEST_F(RaftKvTest, FollowerBehindCompactionBaseGetsInstallSnapshot) {
  Options opt;
  opt.compaction_threshold = 16;
  opt.compaction_keep = 4;
  build(5, opt);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(200 * kMillisecond);
  crash(4);
  for (int i = 0; i < 40; ++i)  // retire well past the threshold
    write_at((250 + 5 * static_cast<Time>(i)) * kMillisecond, 0, 100 + i,
             1000 + i);
  sim_->run_until(kSecond);
  recover(4);
  sim_->run_until(3 * kSecond);
  EXPECT_EQ(nodes_[4]->snapshots_installed(), 1u);
  EXPECT_EQ(nodes_[4]->store().read(1), 11u);
  EXPECT_EQ(nodes_[4]->store().read(139), 1039u);
  EXPECT_TRUE(nodes_[4]->digest() == nodes_[0]->digest());
  // And the repaired follower keeps riding the normal log afterwards.
  write_at(sim_->now() + 10 * kMillisecond, 0, 7, 77);
  sim_->run_until(sim_->now() + 500 * kMillisecond);
  EXPECT_EQ(nodes_[4]->store().read(7), 77u);
  EXPECT_EQ(nodes_[4]->snapshots_installed(), 1u);  // no extra snapshot
}

// Compaction disabled (threshold 0): the log grows without bound and no
// snapshot ever ships — the pre-compaction baseline stays reachable.
TEST_F(RaftKvTest, CompactionDisabledKeepsFullLog) {
  Options opt;
  opt.compaction_threshold = 0;
  build(3, opt);
  for (int i = 0; i < 40; ++i)
    write_at((static_cast<Time>(i) + 1) * 5 * kMillisecond, 0, 100 + i,
             1000 + i);
  sim_->run_until(2 * kSecond);
  EXPECT_GE(nodes_[0]->log_entries_retained(), 40u);
  EXPECT_EQ(nodes_[0]->snapshots_installed(), 0u);
}

TEST_F(RaftKvTest, AsymmetricPartitionDoesNotApplyStaleTail) {
  // One-way partition: the old leader's side (0,1) cannot reach (2,3,4),
  // but the reverse direction stays open. Nodes 2-4 elect a new leader and
  // keep committing; its heartbeats REACH 0 and 1 (reverse path is open)
  // while 0 keeps a stale uncommitted tail of its own appends. The commit
  // advance on those heartbeats must never apply the unverified stale tail
  // (Raft §5.3: commitIndex is bounded by the last VERIFIED entry).
  build(5);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(200 * kMillisecond);
  for (int a : {0, 1})
    for (int b : {2, 3, 4})
      net_->sever(cluster_.servers[static_cast<size_t>(a)],
                  cluster_.servers[static_cast<size_t>(b)]);
  // Old leader appends these, replicates only to node 1 — never committed.
  write_at(300 * kMillisecond, 0, 7, 70);
  write_at(310 * kMillisecond, 0, 8, 80);
  // The majority side commits different writes under a new leader.
  write_at(1'500 * kMillisecond, 2, 2, 22);
  write_at(1'600 * kMillisecond, 3, 3, 33);
  sim_->run_until(4 * kSecond);
  EXPECT_EQ(nodes_[2]->store().read(2), 22u);
  // Nodes 0 and 1 must not have applied their stale tail.
  EXPECT_EQ(nodes_[0]->store().read(7), 0u);
  EXPECT_EQ(nodes_[1]->store().read(7), 0u);
  for (int a : {0, 1})
    for (int b : {2, 3, 4})
      net_->heal(cluster_.servers[static_cast<size_t>(a)],
                 cluster_.servers[static_cast<size_t>(b)]);
  sim_->run_until(8 * kSecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->store().read(2), 22u);
    EXPECT_EQ(n->store().read(3), 33u);
    EXPECT_TRUE(n->digest() == nodes_[2]->digest());
  }
}

TEST_F(RaftKvTest, MinorityPartitionStallsThenHeals) {
  build(3);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(200 * kMillisecond);
  // Isolate node 2 (both directions); the majority keeps committing.
  net_->sever(cluster_.servers[0], cluster_.servers[2]);
  net_->sever(cluster_.servers[2], cluster_.servers[0]);
  net_->sever(cluster_.servers[1], cluster_.servers[2]);
  net_->sever(cluster_.servers[2], cluster_.servers[1]);
  write_at(300 * kMillisecond, 0, 2, 22);
  sim_->run_until(2 * kSecond);
  EXPECT_EQ(nodes_[0]->store().read(2), 22u);
  EXPECT_EQ(nodes_[2]->store().read(2), 0u);
  net_->heal(cluster_.servers[0], cluster_.servers[2]);
  net_->heal(cluster_.servers[2], cluster_.servers[0]);
  net_->heal(cluster_.servers[1], cluster_.servers[2]);
  net_->heal(cluster_.servers[2], cluster_.servers[1]);
  sim_->run_until(4 * kSecond);
  EXPECT_EQ(nodes_[2]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[2]->digest() == nodes_[0]->digest());
}

}  // namespace
}  // namespace canopus::raft
