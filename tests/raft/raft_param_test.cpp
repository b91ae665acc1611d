// Parameterized Raft sweeps: the core invariants hold at every group size.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../testutil/harness.h"

namespace canopus::raft {
namespace {

using simnet::Network;
using simnet::Simulator;
using testutil::probe;
using testutil::RaftHost;
using testutil::small_cluster;

class RaftSizeTest : public ::testing::TestWithParam<int> {
 protected:
  void build(std::uint64_t seed = 42) {
    const int n = GetParam();
    sim_ = std::make_unique<Simulator>(seed);
    cluster_ = small_cluster(n);
    net_ = std::make_unique<Network>(*sim_, cluster_.topo);
    for (int i = 0; i < n; ++i) {
      hosts_.push_back(std::make_unique<RaftHost>());
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *hosts_.back());
      hosts_.back()->make_group(0, cluster_.servers, *sim_);
    }
  }

  std::unique_ptr<Simulator> sim_;
  simnet::Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<RaftHost>> hosts_;
};

TEST_P(RaftSizeTest, ElectsExactlyOneLeaderAtAnySize) {
  build();
  for (auto& h : hosts_) h->groups[0]->start(false);
  sim_->run_until(3 * kSecond);
  int leaders = 0;
  for (auto& h : hosts_)
    if (h->groups[0]->is_leader()) ++leaders;
  EXPECT_EQ(leaders, 1);
}

TEST_P(RaftSizeTest, AllMembersCommitSameSequence) {
  build();
  for (auto& h : hosts_)
    h->groups[0]->start(h->groups[0]->self() == cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);
  for (int i = 0; i < 15; ++i)
    hosts_[0]->groups[0]->propose(probe(std::to_string(i), 2));
  sim_->run_until(2 * kSecond);
  for (auto& h : hosts_) {
    ASSERT_EQ(h->commits.size(), 15u);
    for (int i = 0; i < 15; ++i)
      EXPECT_EQ(testutil::text(h->commits[static_cast<size_t>(i)].entry.payload),
                std::to_string(i));
  }
}

TEST_P(RaftSizeTest, ToleratesMinorityFailures) {
  build();
  const int n = GetParam();
  if (n < 3) GTEST_SKIP() << "needs a tolerable minority";
  for (auto& h : hosts_)
    h->groups[0]->start(h->groups[0]->self() == cluster_.servers[0]);
  sim_->run_until(50 * kMillisecond);

  const int f = (n - 1) / 2;
  for (int i = 0; i < f; ++i) {
    net_->crash(cluster_.servers[static_cast<size_t>(n - 1 - i)]);
    hosts_[static_cast<size_t>(n - 1 - i)]->groups[0]->stop();
  }
  hosts_[0]->groups[0]->propose(probe("survives", 8));
  sim_->run_until(2 * kSecond);
  EXPECT_GE(hosts_[0]->commits.size(), 1u);
  EXPECT_GE(hosts_[1]->commits.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RaftSizeTest,
                         ::testing::Values(1, 2, 3, 5, 7, 9));

class RbcastSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(RbcastSizeTest, EveryMemberDeliversEveryBroadcast) {
  const int n = GetParam();
  Simulator sim(7);
  auto cluster = small_cluster(n);
  Network net(sim, cluster.topo);
  std::vector<std::unique_ptr<testutil::RbcastHost>> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<testutil::RbcastHost>());
    net.attach(cluster.servers[static_cast<size_t>(i)], *hosts.back());
    hosts.back()->init(cluster.servers, sim);
  }
  sim.run_until(10 * kMillisecond);
  for (int round = 0; round < 3; ++round)
    for (auto& h : hosts) h->rb->broadcast(probe("m", 1));
  sim.run_until(2 * kSecond);
  for (auto& h : hosts)
    EXPECT_EQ(h->delivered.size(), static_cast<size_t>(3 * n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RbcastSizeTest,
                         ::testing::Values(2, 3, 4, 5, 7));

}  // namespace
}  // namespace canopus::raft
