// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be the binary's only definition of the global allocation functions.
#include "raft/raft.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "../testutil/harness.h"
#include "alloc_count.h"

namespace canopus::raft {
namespace {

using simnet::Cluster;
using simnet::Network;
using simnet::Simulator;
using testutil::probe;
using testutil::RaftHost;
using testutil::small_cluster;

class RaftTest : public ::testing::Test {
 protected:
  /// Builds n hosts each running one member of a single group (group 0).
  void build(int n, Options opt = {}, std::uint64_t seed = 42) {
    // Tear down dependents of the previous simulator BEFORE replacing it:
    // RaftNode destructors cancel timers on the simulator they were built
    // with (rebuilds happen in e.g. DeterministicAcrossIdenticalSeeds).
    hosts_.clear();
    net_.reset();
    sim_ = std::make_unique<Simulator>(seed);
    cluster_ = small_cluster(n);
    net_ = std::make_unique<Network>(*sim_, cluster_.topo);
    hosts_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto& h = hosts_[static_cast<size_t>(i)];
      h = std::make_unique<RaftHost>();
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *h);
      h->make_group(0, cluster_.servers, *sim_, opt);
    }
  }

  void start_all(NodeId bootstrap = kInvalidNode) {
    for (auto& h : hosts_)
      h->groups[0]->start(h->groups[0]->self() == bootstrap);
  }

  RaftNode& node(int i) { return *hosts_[static_cast<size_t>(i)]->groups[0]; }

  int leader_count() {
    int n = 0;
    for (auto& h : hosts_)
      if (h->groups[0]->is_leader() && !h->groups[0]->stopped()) ++n;
    return n;
  }

  int find_leader() {
    for (size_t i = 0; i < hosts_.size(); ++i)
      if (hosts_[i]->groups[0]->is_leader() && !hosts_[i]->groups[0]->stopped())
        return static_cast<int>(i);
    return -1;
  }

  std::unique_ptr<Simulator> sim_;
  Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<RaftHost>> hosts_;
};

TEST_F(RaftTest, ElectsExactlyOneLeader) {
  build(3);
  start_all();
  sim_->run_until(2 * kSecond);
  EXPECT_EQ(leader_count(), 1);
}

TEST_F(RaftTest, BootstrapLeaderSkipsElection) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  EXPECT_TRUE(node(0).is_leader());
  EXPECT_EQ(node(0).term(), 1u);
  // Followers learn the leader via heartbeats.
  EXPECT_EQ(node(1).leader_hint(), cluster_.servers[0]);
  EXPECT_EQ(node(2).leader_hint(), cluster_.servers[0]);
}

TEST_F(RaftTest, ReplicatesAndCommitsOnAllMembers) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  auto idx = node(0).propose(probe("hello", 5));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 1u);
  sim_->run_until(100 * kMillisecond);
  for (auto& h : hosts_) {
    ASSERT_EQ(h->commits.size(), 1u);
    EXPECT_EQ(testutil::text(h->commits[0].entry.payload),
              "hello");
  }
}

TEST_F(RaftTest, FollowerRejectsProposal) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  EXPECT_FALSE(node(1).propose(probe("nope", 4)).has_value());
}

TEST_F(RaftTest, CommitOrderIsIdentical) {
  build(5);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  for (int i = 0; i < 20; ++i)
    node(0).propose(probe(std::string(1, static_cast<char>('a' + i)), 1));
  sim_->run_until(500 * kMillisecond);
  for (auto& h : hosts_) {
    ASSERT_EQ(h->commits.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(testutil::text(h->commits[static_cast<size_t>(i)].entry.payload),
                std::string(1, static_cast<char>('a' + i)));
    }
  }
}

TEST_F(RaftTest, LeaderFailureTriggersReelection) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  node(0).propose(probe("committed", 9));
  sim_->run_until(100 * kMillisecond);

  net_->crash(cluster_.servers[0]);
  node(0).stop();
  sim_->run_until(2 * kSecond);

  const int leader = find_leader();
  ASSERT_NE(leader, -1);
  EXPECT_NE(leader, 0);
  // The committed entry survived.
  ASSERT_GE(hosts_[static_cast<size_t>(leader)]->commits.size(), 1u);
  EXPECT_EQ(testutil::text(hosts_[static_cast<size_t>(leader)]->commits[0].entry.payload),
            "committed");
}

TEST_F(RaftTest, NewLeaderCompletesIncompleteReplication) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);

  // Propose, let replication start, then crash the leader before its next
  // heartbeat; with live followers the entry reaches them and the new
  // leader must preserve and commit it (§4.3's drain behaviour).
  node(0).propose(probe("draft", 5));
  sim_->run_until(sim_->now() + 5 * kMillisecond);
  net_->crash(cluster_.servers[0]);
  node(0).stop();
  sim_->run_until(3 * kSecond);

  const int leader = find_leader();
  ASSERT_NE(leader, -1);
  auto& commits = hosts_[static_cast<size_t>(leader)]->commits;
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(testutil::text(commits[0].entry.payload), "draft");
}

TEST_F(RaftTest, CrashedFollowerCatchesUpAfterRecovery) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);

  net_->crash(cluster_.servers[2]);
  for (int i = 0; i < 5; ++i) node(0).propose(probe("e", 1));
  sim_->run_until(200 * kMillisecond);
  EXPECT_EQ(hosts_[2]->commits.size(), 0u);

  net_->recover(cluster_.servers[2]);
  sim_->run_until(2 * kSecond);
  EXPECT_EQ(hosts_[2]->commits.size(), 5u);
}

TEST_F(RaftTest, MinorityCannotCommit) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);

  // Cut the leader off from both followers (but not vice versa: the leader
  // keeps believing; the entry must never commit anywhere).
  net_->crash(cluster_.servers[1]);
  net_->crash(cluster_.servers[2]);
  node(1).stop();
  node(2).stop();
  node(0).propose(probe("lost", 4));
  sim_->run_until(2 * kSecond);
  EXPECT_TRUE(hosts_[0]->commits.empty());
}

TEST_F(RaftTest, SingleMemberGroupCommitsImmediately) {
  build(1);
  start_all(cluster_.servers[0]);
  sim_->run_until(kMillisecond);
  node(0).propose(probe("solo", 4));
  EXPECT_EQ(node(0).commit_index(), 1u);
  ASSERT_EQ(hosts_[0]->commits.size(), 1u);
}

TEST_F(RaftTest, RemoveMemberShrinksQuorum) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);

  // Crash one follower; a 3-group can still commit (quorum 2).
  net_->crash(cluster_.servers[2]);
  node(2).stop();

  // Now remove it; group of 2 has quorum 2, still fine with remaining pair.
  node(0).remove_member(cluster_.servers[2]);
  node(1).remove_member(cluster_.servers[2]);
  node(0).propose(probe("after", 5));
  sim_->run_until(500 * kMillisecond);
  ASSERT_EQ(hosts_[0]->commits.size(), 1u);
  ASSERT_EQ(hosts_[1]->commits.size(), 1u);
}

TEST_F(RaftTest, AddMemberReplicatesHistory) {
  build(3);
  // Group of only {0,1} at first.
  std::vector<NodeId> pair{cluster_.servers[0], cluster_.servers[1]};
  for (int i = 0; i < 3; ++i) {
    auto& h = hosts_[static_cast<size_t>(i)];
    h->groups.clear();
    h->commits.clear();
    h->make_group(0, i < 2 ? pair : cluster_.servers, *sim_);
  }
  node(0).start(true);
  node(1).start(false);
  sim_->run_until(50 * kMillisecond);
  node(0).propose(probe("old", 3));
  sim_->run_until(100 * kMillisecond);

  // Node 2 joins; the leader backfills its log.
  node(0).add_member(cluster_.servers[2]);
  node(1).add_member(cluster_.servers[2]);
  node(2).start(false);
  sim_->run_until(2 * kSecond);
  ASSERT_GE(hosts_[2]->commits.size(), 1u);
  EXPECT_EQ(testutil::text(hosts_[2]->commits[0].entry.payload),
            "old");
}

TEST_F(RaftTest, TermIncreasesAcrossElections) {
  build(3);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  const Term t0 = node(0).term();
  net_->crash(cluster_.servers[0]);
  node(0).stop();
  sim_->run_until(3 * kSecond);
  const int leader = find_leader();
  ASSERT_NE(leader, -1);
  EXPECT_GT(node(leader).term(), t0);
}

TEST_F(RaftTest, DeterministicAcrossIdenticalSeeds) {
  build(3, {}, 7);
  start_all();
  sim_->run_until(2 * kSecond);
  const int leader_a = find_leader();
  const Term term_a = node(0).term();

  build(3, {}, 7);
  start_all();
  sim_->run_until(2 * kSecond);
  EXPECT_EQ(find_leader(), leader_a);
  EXPECT_EQ(node(0).term(), term_a);
}

TEST_F(RaftTest, HeartbeatsMaintainLeaderContact) {
  Options opt;
  opt.heartbeat_interval = 10 * kMillisecond;
  build(3, opt);
  start_all(cluster_.servers[0]);
  sim_->run_until(kSecond);
  // Followers heard from the leader within ~1 heartbeat interval.
  EXPECT_LE(node(1).time_since_leader_contact(), 3 * opt.heartbeat_interval);
  EXPECT_EQ(leader_count(), 1);
  EXPECT_EQ(node(0).term(), 1u);  // no disruptive elections
}

// A fan-out puts one payload on the wire (DESIGN.md §5.2): the leader sends
// its AppendEntries to every follower at the same next index, and then its
// commit notices, as one shared value each. A follower's reply to the
// commit notice repeats its reply to the entries, so it is sent again as
// the same payload.
TEST_F(RaftTest, FanOutSharesOnePayload) {
  build(5);
  start_all(cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);  // heartbeats at 45 and 60 ms
  std::vector<simnet::Payload> appends, notices;
  std::map<NodeId, std::vector<simnet::Payload>> replies;
  LogIndex idx = 0;
  net_->set_trace([&](Time, const simnet::Message& m) {
    const WireMsg* w = m.as<WireMsg>();
    if (w == nullptr) return;
    if (w->type == MsgType::kAppendReply) {
      replies[m.src()].push_back(m.payload());
    } else if (w->type != MsgType::kAppendEntries) {
      return;
    } else if (!w->entries.empty()) {
      appends.push_back(m.payload());
    } else if (idx > 0 && w->leader_commit == idx) {
      notices.push_back(m.payload());
    }
  });
  idx = node(0).propose(probe("fan-out", 7)).value();
  sim_->run_until(55 * kMillisecond);
  auto distinct = [](const std::vector<simnet::Payload>& v) {
    std::set<const void*> ids;
    for (const simnet::Payload& p : v) ids.insert(p.raw());
    return ids.size();
  };
  EXPECT_EQ(appends.size(), 4u);
  EXPECT_EQ(distinct(appends), 1u);
  EXPECT_EQ(notices.size(), 4u);
  EXPECT_EQ(distinct(notices), 1u);
  EXPECT_EQ(replies.size(), 4u);
  for (const auto& [follower, sent] : replies) {
    EXPECT_EQ(sent.size(), 2u) << follower;
    EXPECT_EQ(distinct(sent), 1u) << follower;
  }
  for (auto& h : hosts_) EXPECT_EQ(h->commits.size(), 1u);
}

// A follower's AppendReply differs from its previous one whenever its match
// index moves, so the memo cannot send it again. Once the leader has
// dropped the previous reply, the follower rewrites that same block in
// place: its distinct steady-state replies reuse one block and allocate
// nothing. The trace keeps only block identities, not the payloads. The
// warm-up is a second of heartbeats: each one re-arms the followers'
// election timers, and the timer queue keeps the cancelled records until
// it compacts them, so its capacity settles only after a few dozen.
TEST_F(RaftTest, SoleHolderRewritesDistinctRepliesInPlace) {
  build(3);
  start_all(cluster_.servers[0]);
  for (int i = 0; i < 3; ++i) node(0).propose(probe("warm-up", 7));
  sim_->run_until(kSecond);
  ASSERT_EQ(node(1).commit_index(), 3u);

  const NodeId leader = cluster_.servers[0];
  const NodeId follower = cluster_.servers[1];
  std::set<const void*> blocks;
  std::set<LogIndex> matches;
  net_->set_trace([&](Time, const simnet::Message& m) {
    const WireMsg* w = m.as<WireMsg>();
    if (w == nullptr || m.src() != follower ||
        w->type != MsgType::kAppendReply)
      return;
    blocks.insert(m.payload().raw());
    matches.insert(w->match_index);
  });
  // Commit-index notices anchored at each verified prefix in turn: every
  // reply acknowledges a different match index.
  std::uint64_t allocs = 0;
  for (LogIndex anchor = 1; anchor <= 3; ++anchor) {
    WireMsg notice;
    notice.type = MsgType::kAppendEntries;
    notice.term = node(0).term();
    notice.prev_log_index = anchor;
    notice.prev_log_term = node(0).term();
    notice.leader_commit = node(1).commit_index();
    const std::uint64_t before = canopus::bench::heap_allocations();
    node(1).on_message(leader, notice);
    allocs += canopus::bench::heap_allocations() - before;
    sim_->run_until(sim_->now() + kMillisecond);  // the leader drops it
  }
  EXPECT_EQ(matches, (std::set<LogIndex>{1, 2, 3}));
  EXPECT_EQ(blocks.size(), 1u);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace canopus::raft
