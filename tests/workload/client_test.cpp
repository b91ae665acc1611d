// OpenLoopClient construction contract + failed-request accounting, and
// both client machines' exact request streams.
#include "workload/client.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "simnet/topology.h"
#include "workload/router_client.h"

namespace canopus::workload {
namespace {

/// Accepts and ignores everything (stands in for a server).
class SinkProcess final : public simnet::Process {
 public:
  void on_message(const simnet::Message&) override {}
};

TEST(OpenLoopClient, RejectsEmptyServerList) {
  // tick() round-robins over cfg.servers; an empty list used to reach a
  // modulo-by-zero at the first generated batch. It must fail loudly at
  // construction instead.
  ClientConfig cfg;
  auto rec = std::make_shared<LatencyRecorder>();
  EXPECT_THROW(OpenLoopClient(cfg, rec, 1), std::invalid_argument);
}

TEST(OpenLoopClient, AcceptsNonEmptyServerList) {
  ClientConfig cfg;
  cfg.servers = {0, 1, 2};
  auto rec = std::make_shared<LatencyRecorder>();
  OpenLoopClient client(cfg, rec, 1);
  EXPECT_EQ(client.sent(), 0u);
  EXPECT_EQ(client.failed(), 0u);
}

// Regression (chaos-plane accounting): requests whose target server is
// crashed used to be handed to the network and silently black-holed — they
// counted as "sent" and simply never completed, so availability under
// faults could not distinguish a dead server from a slow one. They must be
// counted as failed, both on the client and in the recorder's window.
TEST(OpenLoopClient, CountsRequestsToCrashedServerAsFailed) {
  simnet::Simulator sim(7);
  simnet::RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 2;
  rc.clients_per_rack = 1;
  simnet::Cluster cluster = simnet::build_multi_rack(rc);
  simnet::Network net(sim, cluster.topo, {});

  ClientConfig cfg;
  cfg.servers = cluster.servers;
  cfg.rate_per_s = 50'000;
  cfg.stop_at = 100 * kMillisecond;
  auto rec = std::make_shared<LatencyRecorder>();
  rec->set_window(0, 100 * kMillisecond);
  OpenLoopClient client(cfg, rec, 11);
  net.attach(cluster.clients[0], client);
  SinkProcess s0, s1;
  net.attach(cluster.servers[0], s0);
  net.attach(cluster.servers[1], s1);

  net.crash(cluster.servers[0]);  // one of the two targets is dead
  const std::uint64_t dropped_before = net.stats().dropped;
  sim.run_until(100 * kMillisecond);

  // Roughly half the generated requests round-robin onto the crashed
  // server: all of those must be accounted as failed, none black-holed.
  EXPECT_GT(client.failed(), 0u);
  EXPECT_GT(client.sent(), 0u);
  EXPECT_EQ(client.generated(), client.sent() + client.failed());
  EXPECT_GT(client.failed(), client.generated() / 3);
  EXPECT_LT(client.failed(), 2 * client.generated() / 3);
  // The recorder saw every failure (same arrival-window accounting as
  // completions), so per-phase fault benches report them honestly.
  EXPECT_EQ(rec->failed(), client.failed());
  // And the client did NOT hand the doomed batches to the network: no new
  // drops were recorded for them.
  EXPECT_EQ(net.stats().dropped, dropped_before);
}

// With every server up, nothing is counted failed (the accounting is
// inert outside fault scenarios, so steady-state benches are unchanged).
TEST(OpenLoopClient, NoFailuresWhenAllServersUp) {
  simnet::Simulator sim(7);
  simnet::RackConfig rc;
  rc.racks = 1;
  rc.servers_per_rack = 2;
  rc.clients_per_rack = 1;
  simnet::Cluster cluster = simnet::build_multi_rack(rc);
  simnet::Network net(sim, cluster.topo, {});

  ClientConfig cfg;
  cfg.servers = cluster.servers;
  cfg.rate_per_s = 50'000;
  cfg.stop_at = 50 * kMillisecond;
  auto rec = std::make_shared<LatencyRecorder>();
  rec->set_window(0, 50 * kMillisecond);
  OpenLoopClient client(cfg, rec, 11);
  net.attach(cluster.clients[0], client);
  sim.run_until(50 * kMillisecond);

  EXPECT_GT(client.sent(), 0u);
  EXPECT_EQ(client.failed(), 0u);
  EXPECT_EQ(rec->failed(), 0u);
}

simnet::Cluster rack_cluster(int racks) {
  simnet::RackConfig rc;
  rc.racks = racks;
  rc.clients_per_rack = 1;
  return simnet::build_multi_rack(rc);
}

/// Racks of 3 sink servers and one client machine per rack. Every
/// ClientBatch a server receives is folded into `digest` (FNV-1a over the
/// receiver, then each request's id, operation, key, value and arrival).
struct StreamRig {
  explicit StreamRig(int racks)
      : cluster(rack_cluster(racks)),
        net(sim, cluster.topo, {}),
        servers(cluster.servers.size()) {
    for (std::size_t i = 0; i < servers.size(); ++i)
      net.attach(cluster.servers[i], servers[i]);
    net.set_trace([this](Time, const simnet::Message& m) {
      const auto* batch = m.as<kv::ClientBatch>();
      if (batch == nullptr) return;
      mix(m.dst());
      for (const kv::Request& r : batch->reqs)
        for (const std::uint64_t v :
             {std::uint64_t{r.id.client}, r.id.seq, std::uint64_t{r.is_write},
              r.key, r.value, static_cast<std::uint64_t>(r.arrival)})
          mix(v);
      received += batch->reqs.size();
    });
  }

  void mix(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8)
      digest = (digest ^ ((v >> shift) & 0xff)) * 0x100000001b3ULL;
  }

  simnet::Simulator sim{3};
  simnet::Cluster cluster;
  simnet::Network net;
  std::vector<SinkProcess> servers;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::uint64_t received = 0;
};

// The pins below hold each client machine's request stream bit for bit:
// which requests reach which server, with which ids, operations, keys,
// values and arrival stamps, and which are counted failed instead.

TEST(ClientStream, OpenLoopUniformWithACrashedServer) {
  StreamRig rig(1);
  ClientConfig cfg;
  cfg.servers = rig.cluster.servers;
  cfg.rate_per_s = 50'000;
  cfg.stop_at = 40 * kMillisecond;
  OpenLoopClient client(cfg, std::make_shared<LatencyRecorder>(), 21);
  rig.net.attach(rig.cluster.clients[0], client);
  rig.net.crash(rig.cluster.servers[1]);
  rig.sim.run_until(50 * kMillisecond);
  EXPECT_EQ(rig.digest, 998761289636657755u);
  EXPECT_EQ(rig.received, 1323u);
  EXPECT_EQ(client.sent(), 1323u);
  EXPECT_EQ(client.failed(), 662u);
}

TEST(ClientStream, OpenLoopZipfian) {
  StreamRig rig(1);
  ClientConfig cfg;
  cfg.servers = rig.cluster.servers;
  cfg.rate_per_s = 50'000;
  cfg.write_ratio = 0.5;
  cfg.num_keys = 10'000;
  cfg.key_dist = KeyDist::kZipfian;
  cfg.stop_at = 40 * kMillisecond;
  OpenLoopClient client(cfg, std::make_shared<LatencyRecorder>(), 22);
  rig.net.attach(rig.cluster.clients[0], client);
  rig.sim.run_until(50 * kMillisecond);
  EXPECT_EQ(rig.digest, 2352100761758165136u);
  EXPECT_EQ(rig.received, 1925u);
  EXPECT_EQ(client.sent(), 1925u);
  EXPECT_EQ(client.failed(), 0u);
}

TEST(ClientStream, RouterZipfianRetriesRedirectsAndFails) {
  StreamRig rig(3);
  RouterConfig cfg;
  const std::vector<NodeId>& s = rig.cluster.servers;
  cfg.groups = {{s[0], s[1], s[2]}, {s[3], s[4], s[5]}, {s[6], s[7], s[8]}};
  cfg.sessions = 64;
  cfg.rate_per_s = 50'000;
  cfg.num_keys = 10'000;
  cfg.key_dist = KeyDist::kZipfian;
  cfg.stop_at = 40 * kMillisecond;
  RouterClient client(cfg, std::make_shared<LatencyRecorder>(), 23);
  rig.net.attach(rig.cluster.clients[0], client);
  // Group 0 is down for 20 ms: its batches from the first 6 ms exhaust
  // their four attempts (0, 2, 6 and 14 ms after arrival) and fail, later
  // ones are retried and delivered once it is back. One server of group 1
  // stays down, so some of its batches are redirected.
  for (std::size_t i : {0, 1, 2, 4}) rig.net.crash(s[i]);
  rig.sim.at(20 * kMillisecond, [&rig, &s] {
    for (std::size_t i : {0, 1, 2}) rig.net.recover(s[i]);
  });
  rig.sim.run_until(80 * kMillisecond);
  EXPECT_EQ(rig.digest, 5535890237127757100u);
  EXPECT_EQ(rig.received, 2004u);
  EXPECT_EQ(client.sent(), 2004u);
  EXPECT_EQ(client.failed(), 67u);
  EXPECT_EQ(client.redirects(), 67u);
  EXPECT_EQ(client.retries(), 246u);
}

}  // namespace
}  // namespace canopus::workload
