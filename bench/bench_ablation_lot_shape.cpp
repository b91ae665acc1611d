// Ablation: LOT shape at a fixed group size (§9 "Experiments at large
// scale": nodes can be added by growing super-leaves or adding them; the
// tree can also be made taller).
//
// Compares 27 nodes arranged as:
//   3 super-leaves x 9   (paper's shape, height 2)
//   9 super-leaves x 3   (height 2, more fetch targets per round)
//   9 super-leaves x 3, arity 3 (height 3: an extra round per cycle)
#include <memory>
#include <vector>

#include "bench_util.h"
#include "canopus/node.h"

namespace {

using namespace canopus;
using namespace canopus::workload;

Measurement run_shape(int sls, int per_sl, int arity, double rate,
                      bool quick, unsigned sim_threads) {
  simnet::Simulator sim(7);
  simnet::RackConfig rc;
  rc.racks = sls;
  rc.servers_per_rack = per_sl;
  rc.clients_per_rack = 2;
  simnet::Cluster cluster = simnet::build_multi_rack(rc);
  if (sim_threads > 1)
    sim.configure_shards(cluster.topo,
                         simnet::make_shard_map(cluster.topo, sim_threads));
  simnet::Network net(sim, cluster.topo, simnet::CpuModel{2'000, 2'000, 2.5});

  lot::LotConfig lc;
  lc.arity = arity;
  for (int g = 0; g < sls; ++g) {
    lc.super_leaves.emplace_back();
    for (int s = 0; s < per_sl; ++s)
      lc.super_leaves.back().push_back(
          cluster.servers[static_cast<std::size_t>(g * per_sl + s)]);
  }
  auto lot = std::make_shared<const lot::Lot>(lot::Lot::build(lc));

  std::vector<std::unique_ptr<core::CanopusNode>> nodes;
  for (NodeId s : cluster.servers) {
    nodes.push_back(std::make_unique<core::CanopusNode>(lot, core::Config{}));
    net.attach(s, *nodes.back());
  }

  auto rec = std::make_shared<LatencyRecorder>();
  const Time warmup = 400 * kMillisecond;
  const Time window = quick ? 600 * kMillisecond : kSecond;
  rec->set_window(warmup, warmup + window);
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  Rng seeder(13);
  for (std::size_t i = 0; i < cluster.clients.size(); ++i) {
    ClientConfig cc;
    const int group = cluster.topo.site_of(cluster.clients[i]);
    for (int s = 0; s < per_sl; ++s)
      cc.servers.push_back(
          cluster.servers[static_cast<std::size_t>(group * per_sl + s)]);
    cc.rate_per_s = rate / static_cast<double>(cluster.clients.size());
    cc.stop_at = warmup + window;
    clients.push_back(std::make_unique<OpenLoopClient>(cc, rec, seeder()));
    net.attach(cluster.clients[i], *clients.back());
  }
  const Time deadline = warmup + window + 400 * kMillisecond;
  if (sim_threads > 1)
    sim.run_parallel_until(deadline);
  else
    sim.run_until(deadline);
  return canopus::workload::measure(*rec, rate);
}

}  // namespace

int main(int argc, char** argv) {
  canopus::bench::Harness h(
      argc, argv, "ablation_lot_shape",
      "Ablation: LOT shape at 27 nodes (20% writes, 1.0 Mreq/s offered)",
      "design discussion in Sec 9");
  const bool quick = h.quick();

  struct Shape {
    const char* name;
    int sls, per_sl, arity;
  };
  const std::vector<Shape> shapes{
      {"3 super-leaves x 9 (height 2)", 3, 9, 0},
      {"9 super-leaves x 3 (height 2)", 9, 3, 0},
      {"9 super-leaves x 3 (arity 3, height 3)", 9, 3, 3},
  };
  std::vector<Measurement> results(shapes.size());
  h.pool().run_indexed(shapes.size(), [&](std::size_t i) {
    results[i] =
        run_shape(shapes[i].sls, shapes[i].per_sl, shapes[i].arity,
                  1'000'000, quick, h.sim_threads());
  });
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    canopus::bench::print_measurement_row(shapes[i].name, results[i]);
    auto& sr = h.add_series(shapes[i].name);
    sr.scalar("super_leaves", shapes[i].sls)
        .scalar("per_super_leaf", shapes[i].per_sl)
        .scalar("arity", shapes[i].arity);
    sr.sweep = {results[i]};
  }
  std::printf("\nExpected: wider super-leaves amortize cross-rack fetches;\n"
              "taller trees add a round of latency per cycle but reduce\n"
              "per-round fan-in — the paper's guidance is to keep\n"
              "super-leaf work shorter than the inter-super-leaf RTT.\n");
  return h.finish();
}
