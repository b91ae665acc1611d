// Geo-replicated key-value store: Canopus across 5 datacenters with the
// paper's Table 1 latencies, pipelining enabled, serving a read-heavy
// workload — the deployment §8.2 evaluates and the paper's intro motivates
// (geo-replicated databases with conflict-free transaction processing).
//
//   ./build/examples/geo_replicated_kv
//
// Shows: client-observed throughput/latency per datacenter, pipelined cycle
// cadence, and the commit-order agreement across continents.
#include <cstdio>
#include <memory>
#include <vector>

#include "canopus/node.h"
#include "simnet/network.h"
#include "simnet/topology.h"
#include "workload/client.h"
#include "workload/stats.h"

using namespace canopus;

int main() {
  constexpr int kDcs = 5;  // IR, CA, VA, TK, OR
  constexpr int kPerDc = 3;

  simnet::Simulator sim(7);
  simnet::WanConfig wan;
  wan.servers_per_dc.assign(kDcs, kPerDc);
  wan.clients_per_dc.assign(kDcs, 2);
  wan.rtt_ms = simnet::table1_rtt_ms();
  simnet::Cluster cluster = simnet::build_multi_dc(wan);
  simnet::Network net(sim, cluster.topo, simnet::CpuModel{2'000, 2'000, 2.5});

  lot::LotConfig lc;
  for (int d = 0; d < kDcs; ++d) {
    lc.super_leaves.emplace_back();
    for (int s = 0; s < kPerDc; ++s)
      lc.super_leaves.back().push_back(
          cluster.servers[static_cast<std::size_t>(kPerDc * d + s)]);
  }
  auto lot = std::make_shared<const lot::Lot>(lot::Lot::build(lc));

  core::Config cfg;
  cfg.pipelining = true;               // §7.1: WAN needs overlapping cycles
  cfg.cycle_interval = 5 * kMillisecond;
  cfg.max_batch = 1'000;

  std::vector<std::unique_ptr<core::CanopusNode>> nodes;
  for (NodeId s : cluster.servers) {
    nodes.push_back(std::make_unique<core::CanopusNode>(lot, cfg));
    net.attach(s, *nodes.back());
  }

  // One recorder per datacenter to report per-site latency.
  std::vector<std::shared_ptr<workload::LatencyRecorder>> recs;
  std::vector<std::unique_ptr<workload::OpenLoopClient>> clients;
  Rng seeder(11);
  for (int d = 0; d < kDcs; ++d) {
    auto rec = std::make_shared<workload::LatencyRecorder>();
    rec->set_window(kSecond, 3 * kSecond);
    recs.push_back(rec);
  }
  for (std::size_t i = 0; i < cluster.clients.size(); ++i) {
    const int d = cluster.topo.site_of(cluster.clients[i]);
    workload::ClientConfig cc;
    for (int s = 0; s < kPerDc; ++s)
      cc.servers.push_back(
          cluster.servers[static_cast<std::size_t>(kPerDc * d + s)]);
    cc.rate_per_s = 40'000;  // 400k total
    cc.write_ratio = 0.2;
    cc.stop_at = 3 * kSecond;
    clients.push_back(std::make_unique<workload::OpenLoopClient>(
        cc, recs[static_cast<std::size_t>(d)], seeder()));
    net.attach(cluster.clients[i], *clients.back());
  }

  sim.run_until(4 * kSecond);

  std::printf("geo-replicated KV over Canopus: %d DCs x %d nodes, 400k req/s,"
              " 20%% writes\n\n", kDcs, kPerDc);
  const auto& names = simnet::table1_site_names();
  for (int d = 0; d < kDcs; ++d) {
    const auto& r = *recs[static_cast<std::size_t>(d)];
    std::printf("  %s: %7.0f req/s  median %6.1f ms  p99 %6.1f ms\n",
                names[static_cast<std::size_t>(d)], r.throughput(),
                r.histogram().median() / 1e6,
                r.histogram().percentile(0.99) / 1e6);
  }

  bool agree = true;
  for (const auto& n : nodes) agree = agree && n->digest() == nodes[0]->digest();
  std::printf("\ncycles committed: %llu; cross-continent agreement: %s\n",
              static_cast<unsigned long long>(nodes[0]->last_committed_cycle()),
              agree ? "YES" : "NO");
  return agree ? 0 : 1;
}
