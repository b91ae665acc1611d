#include "simnet/network.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "simnet/payload_testing.h"
#include "simnet/topology.h"

namespace canopus::simnet {
namespace {

struct Recorder : Process {
  struct Rx {
    Time time;
    NodeId src;
    std::string text;
  };
  std::vector<Rx> received;

  void on_message(const Message& m) override {
    const auto* s = m.as<std::string>();
    received.push_back({sim().now(), m.src(), s ? *s : std::string{}});
  }

  using Process::send;  // expose for tests
  void say(NodeId dst, std::size_t bytes, std::string text) {
    send(dst, Payload::sized(std::move(text), bytes));
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  void build(int n, CpuModel cpu = CpuModel{0, 0, 0.0}) {
    RackConfig cfg;
    cfg.racks = 1;
    cfg.servers_per_rack = n;
    cfg.clients_per_rack = 0;
    cluster_ = build_multi_rack(cfg);
    net_ = std::make_unique<Network>(sim_, cluster_.topo, cpu);
    procs_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      net_->attach(cluster_.servers[static_cast<size_t>(i)],
                   procs_[static_cast<size_t>(i)]);
  }

  Simulator sim_;
  Cluster cluster_;
  std::unique_ptr<Network> net_;
  std::vector<Recorder> procs_;
};

TEST_F(NetworkTest, DeliversWithTopologyLatency) {
  build(2);
  const Time expect =
      cluster_.topo.base_latency(cluster_.servers[0], cluster_.servers[1], 100);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 100, "hi"); });
  sim_.run();
  ASSERT_EQ(procs_[1].received.size(), 1u);
  EXPECT_EQ(procs_[1].received[0].time, expect);
  EXPECT_EQ(procs_[1].received[0].text, "hi");
  EXPECT_EQ(procs_[1].received[0].src, cluster_.servers[0]);
}

TEST_F(NetworkTest, CpuCostDelaysDelivery) {
  build(2, CpuModel{1'000, 2'000, 1.0});
  const Time wire =
      cluster_.topo.base_latency(cluster_.servers[0], cluster_.servers[1], 100);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 100, "x"); });
  sim_.run();
  ASSERT_EQ(procs_[1].received.size(), 1u);
  // send: 1000 + 100*1; recv: 2000 + 100*1.
  EXPECT_EQ(procs_[1].received[0].time, wire + 1'100 + 2'100);
}

TEST_F(NetworkTest, SharedLinkSerializesTraffic) {
  build(3);
  // Two senders hammer the same receiver; the receiver's downlink is the
  // shared bottleneck, so the second message queues behind the first.
  const std::size_t big = 1'000'000;  // 1 MB at 1.25 B/ns = 800 us
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[2], big, "a");
    procs_[1].say(cluster_.servers[2], big, "b");
  });
  sim_.run();
  ASSERT_EQ(procs_[2].received.size(), 2u);
  const Time gap = procs_[2].received[1].time - procs_[2].received[0].time;
  // The serialization time of 1 MB at 10 Gb/s is 800 us; queueing must
  // impose at least that gap.
  EXPECT_GE(gap, static_cast<Time>(big / gbps(10.0)));
}

TEST_F(NetworkTest, IndependentLinksDoNotQueue) {
  build(4);
  const std::size_t big = 1'000'000;
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[2], big, "a");
    procs_[1].say(cluster_.servers[3], big, "b");
  });
  sim_.run();
  ASSERT_EQ(procs_[2].received.size(), 1u);
  ASSERT_EQ(procs_[3].received.size(), 1u);
  EXPECT_EQ(procs_[2].received[0].time, procs_[3].received[0].time);
}

TEST_F(NetworkTest, CrashedDestinationDropsMessage) {
  build(2);
  net_->crash(cluster_.servers[1]);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 10, "x"); });
  sim_.run();
  EXPECT_TRUE(procs_[1].received.empty());
  EXPECT_EQ(net_->stats().dropped, 1u);
}

TEST_F(NetworkTest, CrashedSourceSendsNothing) {
  build(2);
  net_->crash(cluster_.servers[0]);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 10, "x"); });
  sim_.run();
  EXPECT_TRUE(procs_[1].received.empty());
  EXPECT_EQ(net_->stats().messages, 0u);
}

TEST_F(NetworkTest, RecoveredNodeReceivesAgain) {
  build(2);
  net_->crash(cluster_.servers[1]);
  net_->recover(cluster_.servers[1]);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 10, "x"); });
  sim_.run();
  EXPECT_EQ(procs_[1].received.size(), 1u);
}

TEST_F(NetworkTest, CrashAfterSendDropsInFlight) {
  build(2);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 10, "x"); });
  sim_.at(1, [&] { net_->crash(cluster_.servers[1]); });
  sim_.run();
  EXPECT_TRUE(procs_[1].received.empty());
}

TEST_F(NetworkTest, SeverBlocksOneDirectionOnly) {
  build(2);
  net_->sever(cluster_.servers[0], cluster_.servers[1]);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 10, "blocked");
    procs_[1].say(cluster_.servers[0], 10, "open");
  });
  sim_.run();
  EXPECT_TRUE(procs_[1].received.empty());
  ASSERT_EQ(procs_[0].received.size(), 1u);
  net_->heal(cluster_.servers[0], cluster_.servers[1]);
  sim_.at(sim_.now(), [&] { procs_[0].say(cluster_.servers[1], 10, "now"); });
  sim_.run();
  EXPECT_EQ(procs_[1].received.size(), 1u);
}

TEST_F(NetworkTest, SeverIsPerDirectedPair) {
  build(3);
  // Severing 0 -> 1 must not affect 0 -> 2, 2 -> 1, or 1 -> 0.
  net_->sever(cluster_.servers[0], cluster_.servers[1]);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 10, "dropped");
    procs_[0].say(cluster_.servers[2], 10, "ok02");
    procs_[2].say(cluster_.servers[1], 10, "ok21");
    procs_[1].say(cluster_.servers[0], 10, "ok10");
  });
  sim_.run();
  ASSERT_EQ(procs_[1].received.size(), 1u);
  EXPECT_EQ(procs_[1].received[0].text, "ok21");
  ASSERT_EQ(procs_[2].received.size(), 1u);
  ASSERT_EQ(procs_[0].received.size(), 1u);
}

TEST_F(NetworkTest, SeverCountsDropsInStats) {
  build(2);
  net_->sever(cluster_.servers[0], cluster_.servers[1]);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 10, "a");
    procs_[0].say(cluster_.servers[1], 10, "b");
  });
  sim_.run();
  EXPECT_EQ(net_->stats().dropped, 2u);
  // Severed sends never enter the wire: no message/byte accounting.
  EXPECT_EQ(net_->stats().messages, 0u);
  EXPECT_EQ(net_->stats().bytes, 0u);
}

TEST_F(NetworkTest, HealOnlyAffectsTheNamedPair) {
  build(3);
  net_->sever(cluster_.servers[0], cluster_.servers[1]);
  net_->sever(cluster_.servers[0], cluster_.servers[2]);
  net_->heal(cluster_.servers[0], cluster_.servers[1]);
  // Healing a pair that was never severed is a no-op, not an error.
  net_->heal(cluster_.servers[1], cluster_.servers[2]);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 10, "healed");
    procs_[0].say(cluster_.servers[2], 10, "still-dropped");
  });
  sim_.run();
  EXPECT_EQ(procs_[1].received.size(), 1u);
  EXPECT_TRUE(procs_[2].received.empty());
  EXPECT_EQ(net_->stats().dropped, 1u);
}

TEST_F(NetworkTest, SeverDoesNotBlockLocalDelivery) {
  build(2);
  // Self-traffic takes the local path; a (nonsensical) self-sever must not
  // black-hole it.
  net_->sever(cluster_.servers[0], cluster_.servers[0]);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[0], 10, "me"); });
  sim_.run();
  EXPECT_EQ(procs_[0].received.size(), 1u);
  EXPECT_EQ(net_->stats().dropped, 0u);
}

TEST_F(NetworkTest, DroppedAccountingUnderCrashPlusPartition) {
  build(3);
  // One crashed destination, one severed pair, one in-flight message whose
  // destination crashes mid-delivery: each drop is counted exactly once.
  net_->crash(cluster_.servers[1]);
  net_->sever(cluster_.servers[0], cluster_.servers[2]);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 10, "to-crashed");   // dropped at dst
    procs_[0].say(cluster_.servers[2], 10, "to-severed");   // dropped at src
    procs_[2].say(cluster_.servers[0], 10, "in-flight");
  });
  sim_.at(1, [&] { net_->crash(cluster_.servers[0]); });    // eats in-flight
  sim_.run();
  EXPECT_TRUE(procs_[0].received.empty());
  EXPECT_TRUE(procs_[1].received.empty());
  EXPECT_TRUE(procs_[2].received.empty());
  EXPECT_EQ(net_->stats().dropped, 3u);
}

TEST_F(NetworkTest, SelfSendDeliversLocally) {
  build(2);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[0], 10, "me"); });
  sim_.run();
  ASSERT_EQ(procs_[0].received.size(), 1u);
  EXPECT_EQ(net_->stats().messages, 0u);  // no wire traffic
}

TEST_F(NetworkTest, StatsCountMessagesAndBytes) {
  build(2);
  sim_.at(0, [&] {
    procs_[0].say(cluster_.servers[1], 100, "a");
    procs_[0].say(cluster_.servers[1], 50, "b");
  });
  sim_.run();
  EXPECT_EQ(net_->stats().messages, 2u);
  EXPECT_EQ(net_->stats().bytes, 150u);
}

TEST_F(NetworkTest, LinkBytesAccumulatePerLink) {
  build(2);
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 100, "a"); });
  sim_.run();
  const auto& path =
      cluster_.topo.path(cluster_.servers[0], cluster_.servers[1]);
  for (LinkId l : path) EXPECT_EQ(net_->link_bytes(l), 100u);
}

TEST_F(NetworkTest, TraceHookSeesDeliveries) {
  build(2);
  std::vector<std::pair<Time, NodeId>> trace;
  net_->set_trace([&](Time t, const Message& m) {
    trace.push_back({t, m.dst()});
  });
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 10, "x"); });
  sim_.run();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].second, cluster_.servers[1]);
}

TEST_F(NetworkTest, FifoOrderPreservedBetweenPair) {
  build(2);
  sim_.at(0, [&] {
    for (int i = 0; i < 10; ++i)
      procs_[0].say(cluster_.servers[1], 100, std::to_string(i));
  });
  sim_.run();
  ASSERT_EQ(procs_[1].received.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(procs_[1].received[static_cast<size_t>(i)].text,
              std::to_string(i));
}

TEST(MessageTest, TypedAccess) {
  Message m(1, 2, Payload::sized(std::string("payload"), 64));
  EXPECT_NE(m.as<std::string>(), nullptr);
  EXPECT_EQ(m.as<int>(), nullptr);
  EXPECT_EQ(*m.as<std::string>(), "payload");
  EXPECT_EQ(m.wire_bytes(), 64u);
}

TEST(MessageTest, ReaddressSharesPayload) {
  Message m(1, 2, Payload::sized(std::string("payload"), 64));
  Message n = m.readdressed(3, 4);
  EXPECT_EQ(n.src(), 3u);
  EXPECT_EQ(n.dst(), 4u);
  EXPECT_EQ(m.as<std::string>(), n.as<std::string>());  // same object
}

// The representative re-broadcast path (§4.2): a relay readdresses the
// incoming Message to its peers and puts it back on the network. Exercises
// Message::readdressed through Network::send end-to-end and checks that
// every receiver shares the original payload allocation.
TEST_F(NetworkTest, ReaddressedRelayDeliversSharedPayload) {
  struct Relay : Process {
    std::vector<NodeId> fanout;
    void on_message(const Message& m) override {
      for (NodeId dst : fanout)
        net().send(m.readdressed(node_id(), dst));
    }
  };
  // Build 4 nodes; node 1 relays whatever node 0 sends to nodes 2 and 3.
  RackConfig cfg;
  cfg.racks = 1;
  cfg.servers_per_rack = 4;
  cfg.clients_per_rack = 0;
  cluster_ = build_multi_rack(cfg);
  net_ = std::make_unique<Network>(sim_, cluster_.topo, CpuModel{0, 0, 0.0});
  procs_.resize(3);  // recorders for nodes 0, 2, 3
  Relay relay;
  relay.fanout = {cluster_.servers[2], cluster_.servers[3]};
  net_->attach(cluster_.servers[0], procs_[0]);
  net_->attach(cluster_.servers[1], relay);
  net_->attach(cluster_.servers[2], procs_[1]);
  net_->attach(cluster_.servers[3], procs_[2]);

  const void* original = nullptr;
  net_->set_trace([&](Time, const Message& m) {
    if (original == nullptr) original = m.payload().raw();
    EXPECT_EQ(m.payload().raw(), original);  // one allocation end to end
  });
  sim_.at(0, [&] { procs_[0].say(cluster_.servers[1], 100, "fetched"); });
  sim_.run();
  ASSERT_EQ(procs_[1].received.size(), 1u);
  ASSERT_EQ(procs_[2].received.size(), 1u);
  EXPECT_EQ(procs_[1].received[0].text, "fetched");
  EXPECT_EQ(procs_[2].received[0].text, "fetched");
  EXPECT_EQ(procs_[1].received[0].src, cluster_.servers[1]);
  EXPECT_NE(original, nullptr);
}

}  // namespace
}  // namespace canopus::simnet
