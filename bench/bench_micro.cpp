// Microbenchmarks (google-benchmark) for the hot substrate primitives:
// event queue churn, network delivery, LOT construction/queries, latency
// histogram recording, and a whole miniature consensus cycle.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "canopus/lot.h"
#include "canopus/node.h"
#include "kv/store.h"
#include "simnet/event_queue.h"
#include "simnet/network.h"
#include "simnet/payload_testing.h"
#include "simnet/topology.h"
#include "workload/deployments.h"
#include "workload/stats.h"

namespace {

using namespace canopus;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  simnet::EventQueue q;
  Time t = 0;
  Time now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) q.schedule(t + (i * 37) % 1000, [] {});
    while (!q.empty()) {
      q.fire_next(now);
      benchmark::DoNotOptimize(now);
    }
    t += 1000;
  }
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueArmCancelChurn(benchmark::State& state) {
  // The Canopus pipeline-timer pattern: arm a far-future watchdog, cancel
  // it almost immediately, repeat — with only a trickle of events actually
  // firing. Stresses how the queue handles cancelled entries.
  simnet::EventQueue q;
  Time t = 0;
  Time now = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      const auto id = q.schedule(t + kSecond, [] {});
      q.cancel(id);
    }
    q.schedule(t, [] {});
    q.fire_next(now);
    benchmark::DoNotOptimize(now);
    t += 10;
  }
}
BENCHMARK(BM_EventQueueArmCancelChurn);

void BM_SimulatorTimerChurn(benchmark::State& state) {
  simnet::Simulator sim;
  for (auto _ : state) {
    auto id = sim.after(100, [] {});
    sim.cancel(id);
    sim.after(1, [] {});
    sim.run();
  }
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_NetworkDelivery(benchmark::State& state) {
  simnet::Simulator sim;
  simnet::RackConfig rc;
  rc.racks = 3;
  rc.servers_per_rack = 9;
  rc.clients_per_rack = 0;
  auto cluster = simnet::build_multi_rack(rc);
  simnet::Network net(sim, cluster.topo);
  struct Sink : simnet::Process {
    void on_message(const simnet::Message&) override {}
  };
  std::vector<Sink> sinks(cluster.servers.size());
  for (std::size_t i = 0; i < sinks.size(); ++i)
    net.attach(cluster.servers[i], sinks[i]);
  sim.run();
  std::size_t i = 0;
  for (auto _ : state) {
    net.send(simnet::Message(cluster.servers[i % 27],
                             cluster.servers[(i + 13) % 27],
                             simnet::Payload::sized(1, 256)));
    sim.run();
    ++i;
  }
}
BENCHMARK(BM_NetworkDelivery);

/// Trial set-up's topology cost: build_cluster plus the Network over it.
/// Args: {wan, groups, servers per group, client machines per group}.
void BM_BuildCluster(benchmark::State& state) {
  workload::TrialConfig tc;
  tc.wan = state.range(0) != 0;
  tc.groups = static_cast<int>(state.range(1));
  tc.per_group = static_cast<int>(state.range(2));
  tc.client_machines = static_cast<int>(state.range(3));
  simnet::Simulator sim;
  for (auto _ : state) {
    const simnet::Cluster cluster = workload::build_cluster(tc);
    simnet::Network net(sim, cluster.topo);
    benchmark::DoNotOptimize(net.topo().num_nodes());
  }
}
BENCHMARK(BM_BuildCluster)
    ->ArgNames({"wan", "groups", "servers", "clients"})
    ->Args({0, 3, 9, 5})     // bench/e2e's LAN: 3 racks x (9 + 5)
    ->Args({1, 7, 3, 5})     // bench/e2e's WAN: 7 DCs x (3 + 5)
    ->Args({0, 20, 40, 10})  // bench_pdes' 1000-machine stress fabric
    ->Unit(benchmark::kMicrosecond);

void BM_MessageTypedAccess(benchmark::State& state) {
  // The per-delivery dispatch cost every protocol pays: one tag compare per
  // candidate type (formerly an RTTI dynamic_cast per candidate). Passing
  // the message through DoNotOptimize each iteration makes the compiler
  // reload its payload, so both compares stay inside the loop.
  simnet::Message m(1, 2, simnet::Payload::sized(7, 64));
  for (auto _ : state) {
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(m.as<char>());  // miss
    benchmark::DoNotOptimize(m.as<int>());   // hit
  }
}
BENCHMARK(BM_MessageTypedAccess);

void BM_PayloadBroadcastFanout(benchmark::State& state) {
  // Re-addressing a fetched proposal to 26 peers: must copy pointers, not
  // the 1000-request write set.
  canopus::proto::Proposal p;
  p.writes = canopus::proto::WriteSet::leaf(
      std::vector<canopus::kv::Request>(1000));
  simnet::Message fetched(0, 1, std::move(p));
  for (auto _ : state) {
    for (NodeId peer = 2; peer < 28; ++peer)
      benchmark::DoNotOptimize(fetched.readdressed(1, peer));
  }
}
BENCHMARK(BM_PayloadBroadcastFanout);

void BM_LotBuild27(benchmark::State& state) {
  lot::LotConfig cfg;
  for (NodeId p = 0; p < 27; p += 3) cfg.super_leaves.push_back({p, p + 1, p + 2});
  cfg.arity = 3;
  for (auto _ : state) {
    auto t = lot::Lot::build(cfg);
    benchmark::DoNotOptimize(t.height());
  }
}
BENCHMARK(BM_LotBuild27);

void BM_EmulationTableQuery(benchmark::State& state) {
  lot::LotConfig cfg;
  for (NodeId p = 0; p < 27; p += 3) cfg.super_leaves.push_back({p, p + 1, p + 2});
  auto t = lot::Lot::build(cfg);
  lot::EmulationTable e(t);
  e.remove(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.emulators(t.root()));
  }
}
BENCHMARK(BM_EmulationTableQuery);

void BM_HistogramRecord(benchmark::State& state) {
  workload::LatencyHistogram h;
  Rng rng(3);
  for (auto _ : state) {
    h.record(static_cast<Time>(rng.below(100 * kMillisecond)));
  }
  benchmark::DoNotOptimize(h.median());
}
BENCHMARK(BM_HistogramRecord);

/// One replica's store under uniform writes over 1M keys, from empty, with
/// every growth included. Arg: writes per store. 180 000 and 600 000 are
/// bench/e2e `lan-write`'s writes per replica in its timed prefix and in
/// its whole `hi` trial.
void BM_StoreInsertUniform(benchmark::State& state) {
  std::vector<kv::Request> writes(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  for (kv::Request& w : writes) {
    w.is_write = true;
    w.key = rng.below(1'000'000);
    w.value = rng();
  }
  for (auto _ : state) {
    kv::Store store;
    for (const kv::Request& w : writes) store.apply(w);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreInsertUniform)
    ->Arg(180'000)
    ->Arg(600'000)
    ->Unit(benchmark::kMillisecond);

/// A full 9-node consensus cycle: submit one write, run to commit.
void BM_CanopusFullCycle(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    simnet::Simulator sim(42);
    simnet::RackConfig rc;
    rc.racks = 3;
    rc.servers_per_rack = 3;
    rc.clients_per_rack = 0;
    auto cluster = simnet::build_multi_rack(rc);
    simnet::Network net(sim, cluster.topo);
    lot::LotConfig lc;
    for (int g = 0; g < 3; ++g)
      lc.super_leaves.push_back({cluster.servers[static_cast<std::size_t>(3 * g)],
                                 cluster.servers[static_cast<std::size_t>(3 * g + 1)],
                                 cluster.servers[static_cast<std::size_t>(3 * g + 2)]});
    auto lot = std::make_shared<const lot::Lot>(lot::Lot::build(lc));
    std::vector<std::unique_ptr<core::CanopusNode>> nodes;
    for (NodeId s : cluster.servers) {
      nodes.push_back(std::make_unique<core::CanopusNode>(lot, core::Config{}));
      net.attach(s, *nodes.back());
    }
    sim.run_until(kMillisecond);
    state.ResumeTiming();

    sim.at(sim.now(), [&] {
      kv::Request r;
      r.is_write = true;
      r.key = 1;
      r.value = 2;
      nodes[0]->submit(r);
    });
    while (nodes[8]->last_committed_cycle() == 0 && !sim.idle())
      sim.run_until(sim.now() + kMillisecond);
    benchmark::DoNotOptimize(nodes[8]->last_committed_cycle());
  }
}
BENCHMARK(BM_CanopusFullCycle)->Unit(benchmark::kMicrosecond);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to BENCH_micro.json
// so the microbenches land next to the figure benches' BENCH_*.json files.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false, has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0)
      has_fmt = true;
  }
  // Inject the default only when the user asked for neither flag: a lone
  // --benchmark_out_format means console/CSV output on the user's terms,
  // and pairing it with an injected .json path would corrupt the file.
  char out[] = "--benchmark_out=BENCH_micro.json";
  char fmt[] = "--benchmark_out_format=json";
  if (!has_out && !has_fmt) {
    args.push_back(out);
    args.push_back(fmt);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
