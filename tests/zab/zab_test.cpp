#include "zab/zab.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "simnet/topology.h"

namespace canopus::zab {
namespace {

class ZabTest : public ::testing::Test {
 protected:
  void build(int n, Config cfg = {}) {
    sim_ = std::make_unique<simnet::Simulator>(42);
    simnet::RackConfig rc;
    rc.racks = 1;
    rc.servers_per_rack = n;
    rc.clients_per_rack = 0;
    cluster_ = simnet::build_multi_rack(rc);
    net_ = std::make_unique<simnet::Network>(*sim_, cluster_.topo);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<ZabNode>(cluster_.servers, cfg));
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *nodes_.back());
    }
  }

  void write_at(Time t, int node, std::uint64_t key, std::uint64_t val) {
    sim_->at(t, [this, node, key, val] {
      kv::Request r;
      r.is_write = true;
      r.key = key;
      r.value = val;
      r.arrival = sim_->now();
      nodes_[static_cast<size_t>(node)]->submit(r);
    });
  }

  void read_at(Time t, int node, std::uint64_t key) {
    sim_->at(t, [this, node, key] {
      kv::Request r;
      r.is_write = false;
      r.key = key;
      r.arrival = sim_->now();
      nodes_[static_cast<size_t>(node)]->submit(r);
    });
  }

  std::unique_ptr<simnet::Simulator> sim_;
  simnet::Cluster cluster_;
  std::unique_ptr<simnet::Network> net_;
  std::vector<std::unique_ptr<ZabNode>> nodes_;
};

TEST_F(ZabTest, RolesAssigned) {
  Config cfg;
  cfg.followers = 5;
  build(9, cfg);
  EXPECT_EQ(nodes_[0]->role(), ZabNode::Role::kLeader);
  EXPECT_EQ(nodes_[1]->role(), ZabNode::Role::kFollower);
  EXPECT_EQ(nodes_[5]->role(), ZabNode::Role::kFollower);
  EXPECT_EQ(nodes_[6]->role(), ZabNode::Role::kObserver);
  EXPECT_EQ(nodes_[8]->role(), ZabNode::Role::kObserver);
}

TEST_F(ZabTest, LeaderWriteCommitsEverywhere) {
  build(9);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(1), 11u);
}

TEST_F(ZabTest, FollowerWriteForwardsToLeader) {
  build(9);
  write_at(kMillisecond, 3, 2, 22);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(2), 22u);
}

TEST_F(ZabTest, ObserverWriteForwardsToLeader) {
  build(9);
  write_at(kMillisecond, 8, 3, 33);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(3), 33u);
}

TEST_F(ZabTest, CommitOrderIdenticalOnAllNodes) {
  build(9);
  for (int i = 0; i < 20; ++i)
    write_at(kMillisecond + static_cast<Time>(i) * 3 * kMillisecond,
             i % 9, static_cast<std::uint64_t>(i % 4),
             static_cast<std::uint64_t>(i));
  sim_->run_until(2 * kSecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->committed_writes(), 20u);
    EXPECT_TRUE(n->digest() == nodes_[0]->digest());
  }
}

TEST_F(ZabTest, ReadsServedLocallyWithoutBroadcast) {
  build(9);
  write_at(kMillisecond, 0, 5, 55);
  sim_->run_until(500 * kMillisecond);
  const auto msgs_before = net_->stats().messages;
  read_at(sim_->now(), 7, 5);
  sim_->run_until(sim_->now() + 100 * kMillisecond);
  EXPECT_EQ(nodes_[7]->served_reads(), 1u);
  // A local read generates no consensus traffic (reply to a test-local
  // client id is suppressed since client == kInvalidNode).
  EXPECT_EQ(net_->stats().messages, msgs_before);
}

TEST_F(ZabTest, BatchingCoalescesWrites) {
  Config cfg;
  cfg.batch_interval = 5 * kMillisecond;
  build(9, cfg);
  int commits = 0;
  nodes_[0]->on_commit = [&](Zxid, const std::vector<kv::Request>&) {
    ++commits;
  };
  // 10 writes to the leader inside one batch window -> one proposal.
  for (int i = 0; i < 10; ++i)
    write_at(kMillisecond, 0, static_cast<std::uint64_t>(i), 1);
  sim_->run_until(kSecond);
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(nodes_[0]->committed_writes(), 10u);
}

TEST_F(ZabTest, QuorumLossStalls) {
  Config cfg;
  cfg.followers = 5;
  build(9, cfg);
  // Kill 3 of 5 followers: quorum of 6 voters (leader+5) is 4; only 3 left.
  net_->crash(cluster_.servers[1]);
  net_->crash(cluster_.servers[2]);
  net_->crash(cluster_.servers[3]);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[0]->store().read(1), 0u);
  EXPECT_EQ(nodes_[8]->store().read(1), 0u);
}

TEST_F(ZabTest, ObserversDoNotVote) {
  Config cfg;
  cfg.followers = 2;
  build(9, cfg);
  // Quorum = 2 of {leader, f1, f2}. Kill ALL observers: commits continue.
  for (int i = 3; i < 9; ++i) net_->crash(cluster_.servers[static_cast<size_t>(i)]);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[0]->store().read(1), 11u);
  EXPECT_EQ(nodes_[1]->store().read(1), 11u);
}

TEST_F(ZabTest, SmallEnsembleFollowerCountClamped) {
  Config cfg;
  cfg.followers = 5;
  build(3, cfg);  // fewer nodes than followers+1
  write_at(kMillisecond, 2, 1, 11);
  sim_->run_until(kSecond);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(1), 11u);
}

TEST_F(ZabTest, LeaderRetransmitsProposalsLostToPartition) {
  Config cfg;
  cfg.followers = 5;
  cfg.sync_retry = 20 * kMillisecond;
  build(6, cfg);
  // Leader -> follower 5 is severed while a write commits: the follower
  // misses the Propose AND the Commit. Post-heal traffic reveals the
  // committed-zxid gap (catch-up is traffic-driven, not heartbeat-driven)
  // and the follower requests the missed range from the leader.
  net_->sever(cluster_.servers[0], cluster_.servers[5]);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(300 * kMillisecond);
  EXPECT_EQ(nodes_[0]->store().read(1), 11u);  // quorum didn't need node 5
  EXPECT_EQ(nodes_[5]->store().read(1), 0u);
  net_->heal(cluster_.servers[0], cluster_.servers[5]);
  write_at(350 * kMillisecond, 0, 2, 22);
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[5]->store().read(1), 11u);
  EXPECT_EQ(nodes_[5]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[5]->digest() == nodes_[0]->digest());
}

TEST_F(ZabTest, CrashedFollowerCatchesUpAfterRecovery) {
  Config cfg;
  cfg.followers = 5;
  cfg.sync_retry = 20 * kMillisecond;
  build(6, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[5]);
    nodes_[5]->crash();
  });
  write_at(50 * kMillisecond, 0, 1, 11);
  write_at(60 * kMillisecond, 1, 2, 22);
  sim_->run_until(400 * kMillisecond);
  EXPECT_EQ(nodes_[5]->store().read(1), 0u);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[5]);
    nodes_[5]->recover();  // resyncs from the leader
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[5]->store().read(1), 11u);
  EXPECT_EQ(nodes_[5]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[5]->digest() == nodes_[0]->digest());
  EXPECT_EQ(nodes_[5]->applied_upto(), nodes_[0]->applied_upto());
}

TEST_F(ZabTest, CrashedObserverCatchesUpAfterRecovery) {
  Config cfg;
  cfg.followers = 2;
  cfg.sync_retry = 20 * kMillisecond;
  build(6, cfg);  // nodes 3..5 are observers
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[5]);
    nodes_[5]->crash();
  });
  write_at(50 * kMillisecond, 0, 1, 11);
  sim_->run_until(300 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[5]);
    nodes_[5]->recover();
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[5]->store().read(1), 11u);
  EXPECT_TRUE(nodes_[5]->digest() == nodes_[0]->digest());
}

// --- history compaction + snapshot sync (ISSUE 10) ------------------------

// A follower that misses more commits than history_depth retains must come
// back by snapshot: the leader's history ring no longer covers the zxid the
// follower asks for, so the SyncReply carries a full state image.
TEST_F(ZabTest, FollowerBeyondHistoryInstallsSnapshot) {
  Config cfg;
  cfg.followers = 5;
  cfg.sync_retry = 20 * kMillisecond;
  cfg.history_depth = 8;  // tiny ring: 20 missed writes overflow it
  build(6, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[5]);
    nodes_[5]->crash();
  });
  for (int i = 0; i < 20; ++i)
    write_at((50 + 5 * i) * kMillisecond, 0, 100 + i, 1000 + i);
  sim_->run_until(400 * kMillisecond);
  EXPECT_LE(nodes_[0]->log_entries_retained(), 8u);  // ring stayed bounded
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[5]);
    nodes_[5]->recover();
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[5]->snapshots_installed(), 1u);
  EXPECT_GE(nodes_[0]->snapshots_served(), 1u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(nodes_[5]->store().read(100 + i), 1000u + i);
  EXPECT_TRUE(nodes_[5]->digest() == nodes_[0]->digest());
  EXPECT_EQ(nodes_[5]->applied_upto(), nodes_[0]->applied_upto());
}

// A member that fell behind by LESS than history_depth still syncs from the
// ring — no snapshot ships for a short gap.
TEST_F(ZabTest, ShortGapSyncsFromHistoryWithoutSnapshot) {
  Config cfg;
  cfg.followers = 5;
  cfg.sync_retry = 20 * kMillisecond;
  cfg.history_depth = 64;
  build(6, cfg);
  sim_->at(10 * kMillisecond, [this] {
    net_->crash(cluster_.servers[5]);
    nodes_[5]->crash();
  });
  write_at(50 * kMillisecond, 0, 1, 11);
  write_at(60 * kMillisecond, 0, 2, 22);
  sim_->run_until(300 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[5]);
    nodes_[5]->recover();
  });
  sim_->run_until(kSecond);
  EXPECT_EQ(nodes_[5]->snapshots_installed(), 0u);
  EXPECT_EQ(nodes_[5]->store().read(2), 22u);
  EXPECT_TRUE(nodes_[5]->digest() == nodes_[0]->digest());
}

TEST_F(ZabTest, RecoveredLeaderResumesCommitPipeline) {
  Config cfg;
  cfg.followers = 5;
  cfg.sync_retry = 20 * kMillisecond;
  build(6, cfg);
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(100 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->crash(cluster_.servers[0]);
    nodes_[0]->crash();
  });
  // Writes forwarded while the leader is down are lost (no election in
  // this baseline); liveness returns once the leader restarts.
  sim_->run_until(400 * kMillisecond);
  sim_->at(sim_->now(), [this] {
    net_->recover(cluster_.servers[0]);
    nodes_[0]->recover();
  });
  write_at(500 * kMillisecond, 1, 2, 22);
  sim_->run_until(2 * kSecond);
  for (auto& n : nodes_) {
    EXPECT_EQ(n->store().read(2), 22u);
    EXPECT_TRUE(n->digest() == nodes_[0]->digest());
  }
}

// A fan-out puts one payload on the wire (DESIGN.md §5.2): the leader's
// Propose to its followers, its CommitMsg to them and its Inform to the
// observers are one shared value each.
TEST_F(ZabTest, FanOutSharesOnePayload) {
  build(9);  // leader, 5 followers, 3 observers
  std::vector<simnet::Payload> proposes, commits, informs;
  net_->set_trace([&](Time, const simnet::Message& m) {
    if (m.as<Propose>() != nullptr) proposes.push_back(m.payload());
    if (m.as<CommitMsg>() != nullptr) commits.push_back(m.payload());
    if (m.as<Inform>() != nullptr) informs.push_back(m.payload());
  });
  write_at(kMillisecond, 0, 1, 11);
  sim_->run_until(kSecond);
  auto distinct = [](const std::vector<simnet::Payload>& v) {
    std::set<const void*> ids;
    for (const simnet::Payload& p : v) ids.insert(p.raw());
    return ids.size();
  };
  EXPECT_EQ(proposes.size(), 5u);
  EXPECT_EQ(distinct(proposes), 1u);
  EXPECT_EQ(commits.size(), 5u);
  EXPECT_EQ(distinct(commits), 1u);
  EXPECT_EQ(informs.size(), 3u);
  EXPECT_EQ(distinct(informs), 1u);
  for (auto& n : nodes_) EXPECT_EQ(n->store().read(1), 11u);
}

}  // namespace
}  // namespace canopus::zab
