#include "rbcast/rbcast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "../testutil/harness.h"

namespace canopus::rbcast {
namespace {

using simnet::Cluster;
using simnet::Network;
using simnet::Simulator;
using testutil::probe;
using testutil::RbcastHost;
using testutil::small_cluster;

class RbcastTest : public ::testing::Test {
 protected:
  void build(int n, std::uint64_t seed = 42) {
    // Old hosts reference the old simulator; destroy them before it goes.
    hosts_.clear();
    net_.reset();
    sim_ = std::make_unique<Simulator>(seed);
    cluster_ = small_cluster(n);
    net_ = std::make_unique<Network>(*sim_, cluster_.topo);
    for (int i = 0; i < n; ++i) {
      hosts_.push_back(std::make_unique<RbcastHost>());
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *hosts_.back());
      hosts_.back()->init(cluster_.servers, *sim_);
    }
  }

  std::vector<std::string> texts(int host) const {
    std::vector<std::string> out;
    for (const auto& d : hosts_[static_cast<size_t>(host)]->delivered)
      out.push_back(testutil::text(d.payload));
    return out;
  }

  std::unique_ptr<Simulator> sim_;
  Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<RbcastHost>> hosts_;
};

TEST_F(RbcastTest, BroadcastReachesAllIncludingSelf) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  hosts_[0]->rb->broadcast(probe("m1", 2));
  sim_->run_until(100 * kMillisecond);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(hosts_[static_cast<size_t>(i)]->delivered.size(), 1u) << i;
    EXPECT_EQ(hosts_[static_cast<size_t>(i)]->delivered[0].origin,
              cluster_.servers[0]);
    EXPECT_EQ(texts(i)[0], "m1");
  }
}

TEST_F(RbcastTest, SameOriginDeliveredInOrderEverywhere) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  for (int i = 0; i < 10; ++i)
    hosts_[1]->rb->broadcast(probe(std::to_string(i), 2));
  sim_->run_until(500 * kMillisecond);
  for (int h = 0; h < 3; ++h) {
    auto t = texts(h);
    ASSERT_EQ(t.size(), 10u);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(t[static_cast<size_t>(i)], std::to_string(i));
  }
}

TEST_F(RbcastTest, ConcurrentBroadcastsAllDelivered) {
  build(5);
  sim_->run_until(10 * kMillisecond);
  for (auto& h : hosts_)
    h->rb->broadcast(
        probe("from" + std::to_string(h->rb->members()[0]), 8));
  // Every node broadcast one message; all five must deliver all five.
  for (size_t i = 0; i < hosts_.size(); ++i)
    hosts_[i]->rb->broadcast(probe("x" + std::to_string(i), 8));
  sim_->run_until(kSecond);
  for (auto& h : hosts_) EXPECT_EQ(h->delivered.size(), 10u);
}

TEST_F(RbcastTest, AgreementOnSameOriginPrefix) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  for (int i = 0; i < 5; ++i) {
    hosts_[0]->rb->broadcast(probe("a" + std::to_string(i), 2));
    hosts_[2]->rb->broadcast(probe("c" + std::to_string(i), 2));
  }
  sim_->run_until(kSecond);
  // Per-origin sequences are identical on every host.
  for (int h = 0; h < 3; ++h) {
    std::vector<std::string> a, c;
    for (const auto& d : hosts_[static_cast<size_t>(h)]->delivered) {
      const std::string s = testutil::text(d.payload);
      (s[0] == 'a' ? a : c).push_back(s);
    }
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(c.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(a[static_cast<size_t>(i)], "a" + std::to_string(i));
      EXPECT_EQ(c[static_cast<size_t>(i)], "c" + std::to_string(i));
    }
  }
}

TEST_F(RbcastTest, FailedPeerIsDetected) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[2]);
  hosts_[2]->rb->stop();
  sim_->run_until(3 * kSecond);
  // Survivors detect the failure of node 2's group leadership.
  for (int h = 0; h < 2; ++h) {
    ASSERT_GE(hosts_[static_cast<size_t>(h)]->failures.size(), 1u) << h;
    EXPECT_EQ(hosts_[static_cast<size_t>(h)]->failures[0],
              cluster_.servers[2]);
  }
}

TEST_F(RbcastTest, InFlightBroadcastSurvivesOriginCrash) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  // Broadcast then crash the origin 3 ms later: replication has reached the
  // followers; the replacement leader must complete delivery (§4.3).
  hosts_[0]->rb->broadcast(probe("will-survive", 12));
  sim_->run_until(sim_->now() + 3 * kMillisecond);
  net_->crash(cluster_.servers[0]);
  hosts_[0]->rb->stop();
  sim_->run_until(5 * kSecond);
  for (int h = 1; h < 3; ++h) {
    auto t = texts(h);
    ASSERT_EQ(t.size(), 1u) << h;
    EXPECT_EQ(t[0], "will-survive");
  }
}

TEST_F(RbcastTest, StragglerThatMissedTheNoopCatchesUpFromDissolvers) {
  // A survivor that misses the replacement leader's no-op until every other
  // survivor has dissolved the failed origin's group must still deliver
  // that group's log and report the failure: the dissolvers' notices name
  // the group's final entry and serve the tail the straggler lacks.
  constexpr std::size_t kOrigin = 4;
  const Time crash_at = 10 * kMillisecond;
  const Time end = 3 * kSecond;
  // Runs the crash with `straggler`'s inbound links cut over
  // [cut_from, cut_to). Returns each host's first failure-report time.
  const auto run = [&](std::size_t straggler, Time cut_from, Time cut_to) {
    build(5);
    for (auto& h : hosts_) h->dissolve_on_failure = true;
    sim_->run_until(crash_at - 5 * kMillisecond);
    for (std::size_t i = 0; i < hosts_.size(); ++i)
      hosts_[i]->rb->broadcast(probe(std::to_string(i), 1));
    sim_->run_until(crash_at);
    net_->crash(cluster_.servers[kOrigin]);
    hosts_[kOrigin]->rb->stop();
    std::vector<Time> reported(hosts_.size(), 0);
    for (Time t = crash_at; t < end; t += kMillisecond) {
      if (t == cut_from || t == cut_to) {
        for (std::size_t i = 0; i < hosts_.size(); ++i) {
          if (i == straggler) continue;
          if (t == cut_from)
            net_->sever(cluster_.servers[i], cluster_.servers[straggler]);
          else
            net_->heal(cluster_.servers[i], cluster_.servers[straggler]);
        }
      }
      sim_->run_until(t + kMillisecond);
      for (std::size_t i = 0; i < hosts_.size(); ++i)
        if (reported[i] == 0 && !hosts_[i]->failures.empty())
          reported[i] = sim_->now();
    }
    return reported;
  };

  // Probe: when the first survivor (the replacement leader) detects the
  // crash. The straggler is another survivor.
  const std::vector<Time> probe = run(kOrigin, 0, 0);
  std::size_t first = 0;
  for (std::size_t i = 1; i < kOrigin; ++i)
    if (probe[i] < probe[first]) first = i;
  ASSERT_GT(probe[first], crash_at);
  const std::size_t straggler = first == 0 ? 1 : 0;

  // Same seed, but the straggler hears nothing from 20 ms before that
  // point until 40 ms after it: less than an election timeout, so it
  // triggers no election of its own in the live groups.
  const Time cut_from = probe[first] - 20 * kMillisecond;
  const Time cut_to = probe[first] + 40 * kMillisecond;
  const std::vector<Time> reported = run(straggler, cut_from, cut_to);
  for (std::size_t i = 0; i < kOrigin; ++i) {
    ASSERT_EQ(hosts_[i]->failures,
              std::vector<NodeId>{cluster_.servers[kOrigin]})
        << i;
    if (i != straggler) {
      EXPECT_LT(reported[i], cut_to) << i;
    }
  }
  // Every other survivor dissolved the group before the straggler could
  // hear the no-op, so it learned of the failure through the notices.
  EXPECT_GT(reported[straggler], cut_to);
  // Agreement: every survivor delivered the same set, the origin's last
  // broadcast included (order across origins is not part of the contract).
  const auto delivered_set = [&](std::size_t i) {
    auto t = texts(static_cast<int>(i));
    std::sort(t.begin(), t.end());
    return t;
  };
  for (std::size_t i = 0; i < kOrigin; ++i)
    EXPECT_EQ(delivered_set(i),
              (std::vector<std::string>{"0", "1", "2", "3", "4"}))
        << i;
}

TEST_F(RbcastTest, RemoveMemberKeepsBroadcastWorking) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[2]);
  hosts_[2]->rb->stop();
  sim_->run_until(3 * kSecond);
  hosts_[0]->rb->remove_member(cluster_.servers[2]);
  hosts_[1]->rb->remove_member(cluster_.servers[2]);
  const auto before0 = hosts_[0]->delivered.size();
  const auto before1 = hosts_[1]->delivered.size();
  hosts_[0]->rb->broadcast(probe("post-removal", 12));
  sim_->run_until(sim_->now() + kSecond);
  EXPECT_EQ(hosts_[0]->delivered.size(), before0 + 1);
  EXPECT_EQ(hosts_[1]->delivered.size(), before1 + 1);
}

TEST_F(RbcastTest, MajorityFailureHaltsBroadcast) {
  build(3);
  sim_->run_until(10 * kMillisecond);
  net_->crash(cluster_.servers[1]);
  net_->crash(cluster_.servers[2]);
  hosts_[1]->rb->stop();
  hosts_[2]->rb->stop();
  hosts_[0]->rb->broadcast(probe("stuck", 5));
  sim_->run_until(5 * kSecond);
  // 2F+1 = 3 supports F = 1; two failures halt delivery (no commit).
  EXPECT_TRUE(hosts_[0]->delivered.empty());
}

TEST_F(RbcastTest, IsMemberReflectsMembership) {
  build(2);
  EXPECT_TRUE(hosts_[0]->rb->is_member(cluster_.servers[1]));
  hosts_[0]->rb->remove_member(cluster_.servers[1]);
  EXPECT_FALSE(hosts_[0]->rb->is_member(cluster_.servers[1]));
}

}  // namespace
}  // namespace canopus::rbcast
