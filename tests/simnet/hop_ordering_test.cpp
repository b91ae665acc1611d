// Regression test for the per-hop link reservation model: a message whose
// arrival at a shared link lies far in the future (long WAN propagation)
// must NOT delay a message that physically reaches that link earlier.
//
// Before the fix, Network::send reserved every hop at send-call time, so a
// WAN message sent first reserved the destination's down-link ~66 ms ahead
// and a local message sent a microsecond later queued behind the
// reservation — inflating intra-DC delivery by the WAN latency. This
// single modelling flaw tripled Canopus' WAN cycle times.
#include <gtest/gtest.h>

#include <memory>

#include "simnet/network.h"
#include "simnet/payload_testing.h"
#include "simnet/topology.h"

namespace canopus::simnet {
namespace {

struct Recorder : Process {
  std::vector<std::pair<Time, NodeId>> rx;
  void on_message(const Message& m) override {
    rx.push_back({sim().now(), m.src()});
  }
  void say(NodeId dst, std::size_t bytes) {
    send(dst, Payload::sized(1, bytes));
  }
};

TEST(HopOrdering, WanMessageDoesNotBlockEarlierLocalOne) {
  // Two DCs; a VA node sends to an IR node (one-way ~33 ms); a moment
  // later an IR-local node sends to the same destination. The local
  // message must arrive in ~intra-DC time, not after the WAN one.
  WanConfig wc;
  wc.servers_per_dc = {2, 1};
  wc.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(wc);
  Simulator sim;
  Network net(sim, c.topo, CpuModel{0, 0, 0});

  Recorder ir0, ir1, va;
  net.attach(c.servers[0], ir0);  // IR, destination
  net.attach(c.servers[1], ir1);  // IR, local sender
  net.attach(c.servers[2], va);   // VA, remote sender

  sim.at(0, [&] { va.say(c.servers[0], 1'000); });
  sim.at(1'000, [&] { ir1.say(c.servers[0], 1'000); });  // 1 us later
  sim.run();

  ASSERT_EQ(ir0.rx.size(), 2u);
  // Local message first (~0.1 ms intra-DC), WAN second (~33 ms).
  EXPECT_EQ(ir0.rx[0].second, c.servers[1]);
  EXPECT_LT(ir0.rx[0].first, kMillisecond);
  EXPECT_EQ(ir0.rx[1].second, c.servers[2]);
  EXPECT_GT(ir0.rx[1].first, 30 * kMillisecond);
}

TEST(HopOrdering, BandwidthContentionStillApplies) {
  // The fix must not lose bandwidth queueing: two large same-origin
  // messages to one destination still serialize on the shared down-link.
  RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 3;
  rc.clients_per_rack = 0;
  Cluster c = build_multi_rack(rc);
  Simulator sim;
  Network net(sim, c.topo, CpuModel{0, 0, 0});
  Recorder a, b, dst;
  net.attach(c.servers[0], a);
  net.attach(c.servers[1], b);
  net.attach(c.servers[2], dst);

  const std::size_t big = 1'000'000;  // 800 us serialization at 10 Gb/s
  sim.at(0, [&] {
    a.say(c.servers[2], big);
    b.say(c.servers[2], big);
  });
  sim.run();
  ASSERT_EQ(dst.rx.size(), 2u);
  EXPECT_GE(dst.rx[1].first - dst.rx[0].first,
            static_cast<Time>(static_cast<double>(big) / gbps(10.0)));
}

TEST(HopOrdering, PerPairFifoPreserved) {
  // Hop-by-hop scheduling must keep same-pair FIFO (protocol layers rely
  // on it).
  RackConfig rc;
  rc.racks = 2;
  rc.servers_per_rack = 1;
  rc.clients_per_rack = 0;
  Cluster c = build_multi_rack(rc);
  Simulator sim;
  Network net(sim, c.topo);
  Recorder a, b;
  net.attach(c.servers[0], a);
  net.attach(c.servers[1], b);
  sim.at(0, [&] {
    for (int i = 0; i < 20; ++i)
      a.say(c.servers[1], static_cast<std::size_t>(100 + 100 * (i % 3)));
  });
  sim.run();
  ASSERT_EQ(b.rx.size(), 20u);
  for (std::size_t i = 1; i < b.rx.size(); ++i)
    EXPECT_GE(b.rx[i].first, b.rx[i - 1].first);
}

}  // namespace
}  // namespace canopus::simnet
