// Table 1: inter-datacenter RTTs. Validates that the simulated WAN
// reproduces the latency matrix the paper measured on EC2 — the input that
// drives every multi-DC experiment.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "simnet/network.h"
#include "simnet/payload_testing.h"
#include "simnet/topology.h"

namespace {

using namespace canopus;

/// Ping-pong process: replies to every probe.
struct Ponger : simnet::Process {
  void on_message(const simnet::Message& m) override {
    if (m.as<int>() != nullptr)
      send(m.src(), simnet::Payload::sized('p', 64));
  }
};

struct Pinger : simnet::Process {
  Time sent_at = 0;
  Time rtt = -1;
  NodeId target = kInvalidNode;

  void on_message(const simnet::Message& m) override {
    if (m.as<char>() != nullptr) rtt = sim().now() - sent_at;
  }
  void ping() {
    sent_at = sim().now();
    send(target, simnet::Payload::sized(1, 64));
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace canopus;
  bench::Harness h(argc, argv, "table1",
                   "Table 1 calibration: inter-DC round-trip times (ms)",
                   "Table 1 (measured EC2 latencies)");

  const auto& rtt = simnet::table1_rtt_ms();
  const auto& names = simnet::table1_site_names();
  const int dcs = static_cast<int>(rtt.size());

  simnet::WanConfig wc;
  wc.servers_per_dc.assign(static_cast<std::size_t>(dcs), 1);
  wc.rtt_ms = rtt;
  simnet::Cluster cluster = simnet::build_multi_dc(wc);

  auto& matrix = h.add_series("rtt_matrix");

  // No CPU cost: we are measuring pure propagation like ping does.
  double max_err = 0;
  std::printf("\n      ");
  for (int j = 0; j < dcs; ++j) std::printf("%10s", names[static_cast<size_t>(j)]);
  std::printf("\n");
  for (int i = 0; i < dcs; ++i) {
    std::printf("  %-4s", names[static_cast<size_t>(i)]);
    for (int j = 0; j <= i; ++j) {
      simnet::Simulator sim;
      simnet::Network net(sim, cluster.topo, simnet::CpuModel{0, 0, 0});
      Pinger pinger;
      Ponger ponger;
      if (i == j) {
        // Intra-DC: need two nodes in the same DC; rebuild with 2 per DC.
        simnet::WanConfig wc2 = wc;
        wc2.servers_per_dc.assign(static_cast<std::size_t>(dcs), 2);
        simnet::Cluster c2 = simnet::build_multi_dc(wc2);
        simnet::Network net2(sim, c2.topo, simnet::CpuModel{0, 0, 0});
        pinger.target = c2.servers[static_cast<size_t>(2 * i + 1)];
        net2.attach(c2.servers[static_cast<size_t>(2 * i)], pinger);
        net2.attach(c2.servers[static_cast<size_t>(2 * i + 1)], ponger);
        sim.at(0, [&] { pinger.ping(); });
        sim.run();
      } else {
        pinger.target = cluster.servers[static_cast<size_t>(j)];
        net.attach(cluster.servers[static_cast<size_t>(i)], pinger);
        net.attach(cluster.servers[static_cast<size_t>(j)], ponger);
        sim.at(0, [&] { pinger.ping(); });
        sim.run();
      }
      const double measured = static_cast<double>(pinger.rtt) / kMillisecond;
      const double expect = rtt[static_cast<size_t>(i)][static_cast<size_t>(j)];
      max_err = std::max(max_err, std::abs(measured - expect));
      matrix.scalar(std::string(names[static_cast<size_t>(i)]) + "-" +
                        names[static_cast<size_t>(j)] + "_ms",
                    measured);
      std::printf("%10.2f", measured);
    }
    std::printf("\n");
  }
  std::printf("\n  paper values: IR-CA 133, FF-SY 322, TK intra 0.13, ...\n");
  std::printf("  max |measured - paper| = %.3f ms (serialization of the 64B probe)\n",
              max_err);
  h.add_scalar("max_abs_error_ms", max_err);
  return h.finish();
}
