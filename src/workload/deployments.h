// Ready-made deployments: a consensus system + topology + open-loop clients,
// matching the paper's experimental setups (§8).
//
// The deployment pipeline is factored so every driver shares it:
//   build_cluster(tc)            — topology + server/client placement
//   group_servers(tc, cluster)   — each rack's/DC's slice of the servers
//   make_service(tc, cluster, n) — the system behind workload::ConsensusService
//   attach_clients(...)          — open-loop Poisson client machines, each
//                                  offering machine_load(...)
// The sharded shape (workload/sharded.h) deploys one group per slice behind
// RouterClients instead. workload/trial.h composes either shape (plus
// faults and the auditor) into the one trial pipeline every bench, test
// and example runs.
#pragma once

#include <bit>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simnet/network.h"
#include "simnet/topology.h"
#include "workload/client.h"
#include "workload/service.h"

namespace canopus::workload {

/// Which consensus system a deployment runs.
enum class System { kCanopus, kEPaxos, kZab, kRaft };

inline constexpr System kAllSystems[] = {System::kCanopus, System::kRaft,
                                         System::kZab, System::kEPaxos};

inline const char* system_name(System s) {
  switch (s) {
    case System::kCanopus: return "Canopus";
    case System::kEPaxos: return "EPaxos";
    case System::kZab: return "ZooKeeper";
    case System::kRaft: return "Raft";
  }
  return "?";
}

/// Which backend executes the trial: the discrete-event simulator
/// (deterministic, simulated clock) or runtime::ThreadedRuntime (one OS
/// thread per node, wall clock, lock-free SPSC mailboxes). Same protocol
/// code either way — see DESIGN.md §12.
enum class RuntimeKind { kSim, kThreads };

inline const char* runtime_name(RuntimeKind r) {
  return r == RuntimeKind::kSim ? "sim" : "threads";
}

struct TrialConfig {
  System system = System::kCanopus;

  // Topology: single-DC (racks of servers, paper §8.1) or multi-DC WAN
  // (paper §8.2). When `wan` is true, `groups` datacenters of `per_group`
  // servers each are connected by the Table 1 latency matrix.
  bool wan = false;
  int groups = 3;            ///< racks or datacenters
  int per_group = 3;         ///< servers per rack / per DC
  int client_machines = 5;   ///< client machines per rack / per DC

  // Workload (§8.1): 180 clients, 20% writes, 1M keys, 16-byte pairs.
  double write_ratio = 0.2;
  std::uint64_t num_keys = 1'000'000;
  /// Key popularity (key_sampler.h): the paper's uniform draw by default;
  /// kZipfian skews per YCSB with exponent `zipf_theta`.
  KeyDist key_dist = KeyDist::kUniform;
  double zipf_theta = 0.99;

  // Measurement window.
  Time warmup = 600 * kMillisecond;
  Time measure = 2 * kSecond;
  Time drain = 800 * kMillisecond;

  std::uint64_t seed = 1;

  /// Intra-trial parallelism: number of shard worker threads for the
  /// conservative PDES kernel (1 = classic serial run). Output is
  /// bit-identical either way — the lane-sequence discipline makes event
  /// order independent of the shard map (see DESIGN.md §10).
  unsigned sim_threads = 1;

  /// Execution backend (--runtime=sim|threads). kThreads runs the same
  /// deployment on real node threads at wall-clock speed; results are then
  /// hardware-dependent, not deterministic.
  RuntimeKind runtime = RuntimeKind::kSim;

  /// Per-node processing costs. The defaults are calibrated (see
  /// EXPERIMENTS.md) so a single node tops out at a few hundred thousand
  /// requests/second — the regime of the paper's testbed — making the CPU
  /// of broadcast-heavy protocols the bottleneck it was in §8:
  ///   2 us fixed per message + 2.5 ns per payload byte, each direction,
  ///   plus protocol-level per-request costs charged by each system (see
  ///   canopus/epaxos/zab Config).
  simnet::CpuModel cpu{2'000, 2'000, 2.5};

  // Per-system tuning.
  core::Config canopus;
  epaxos::Config epaxos;
  zab::Config zab;
  raft::KvConfig raft;
};

/// A trial's root seed: every offered rate gets its own RNG stream, so a
/// trial's result depends only on (config, rate) — never on which order or
/// thread the harness ran it in — and sweep points are statistically
/// independent rather than replaying one stream at different loads.
inline std::uint64_t trial_seed(const TrialConfig& tc, double offered_rate) {
  return derive_seed(tc.seed, std::bit_cast<std::uint64_t>(offered_rate));
}

/// Builds the cluster (topology + server/client node ids) for a config.
inline simnet::Cluster build_cluster(const TrialConfig& tc) {
  if (tc.wan) {
    simnet::WanConfig wc;
    wc.servers_per_dc.assign(static_cast<std::size_t>(tc.groups),
                             tc.per_group);
    wc.clients_per_dc.assign(static_cast<std::size_t>(tc.groups),
                             tc.client_machines);
    wc.rtt_ms = simnet::table1_rtt_ms();
    return simnet::build_multi_dc(wc);
  }
  simnet::RackConfig rc;
  rc.racks = tc.groups;
  rc.servers_per_rack = tc.per_group;
  rc.clients_per_rack = tc.client_machines;
  return simnet::build_multi_rack(rc);
}

/// Canopus LOT for an arbitrary server set: one super-leaf per rack/DC,
/// super-leaves in rack order of first appearance. For the classic
/// whole-cluster deployment (servers laid out rack-major by build_cluster)
/// this reproduces the historical `groups x per_group` grouping exactly;
/// for a sharded group confined to one rack it yields a single super-leaf
/// (height-1 LOT — supported by lot::Lot::build).
inline lot::LotConfig make_lot_config(const std::vector<NodeId>& servers,
                                      const simnet::Topology& topo) {
  lot::LotConfig lc;
  std::unordered_map<int, std::size_t> slot;
  for (const NodeId n : servers) {
    const auto [it, fresh] =
        slot.try_emplace(topo.rack_of(n), lc.super_leaves.size());
    if (fresh) lc.super_leaves.emplace_back();
    lc.super_leaves[it->second].push_back(n);
  }
  return lc;
}

/// Each rack's/DC's servers — a sharded deployment's consensus groups:
/// slice g is servers [g*per_group, (g+1)*per_group) of the cluster, as
/// build_cluster lays them out.
inline std::vector<std::vector<NodeId>> group_servers(
    const TrialConfig& tc, const simnet::Cluster& cluster) {
  const auto groups = static_cast<std::size_t>(tc.groups);
  const auto per = static_cast<std::size_t>(tc.per_group);
  if (cluster.servers.size() != groups * per)
    throw std::invalid_argument(
        "group_servers: cluster/server-count mismatch");
  std::vector<std::vector<NodeId>> out;
  out.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g)
    out.emplace_back(cluster.servers.begin() + g * per,
                     cluster.servers.begin() + (g + 1) * per);
  return out;
}

/// Deploys the configured system over `servers` — the whole cluster for the
/// classic single-group deployments, or one group's slice for a sharded one
/// (make_group_services). The service owns the protocol instances; it must
/// outlive the simulation run.
inline std::unique_ptr<ConsensusService> make_group_service(
    const TrialConfig& tc, std::vector<NodeId> servers,
    const simnet::Topology& topo, runtime::Host& net) {
  switch (tc.system) {
    case System::kCanopus: {
      lot::LotConfig lc = make_lot_config(servers, topo);
      return std::make_unique<CanopusService>(net, std::move(servers), lc,
                                              tc.canopus);
    }
    case System::kEPaxos:
      return std::make_unique<EPaxosService>(net, std::move(servers),
                                             tc.epaxos);
    case System::kZab:
      return std::make_unique<ZabService>(net, std::move(servers), tc.zab);
    case System::kRaft:
      return std::make_unique<RaftService>(net, std::move(servers), tc.raft);
  }
  return nullptr;
}

inline std::unique_ptr<ConsensusService> make_service(
    const TrialConfig& tc, const simnet::Cluster& cluster,
    runtime::Host& net) {
  return make_group_service(tc, cluster.servers, cluster.topo, net);
}

/// The load of one client machine when `offered_rate` is spread evenly over
/// the cluster's client machines: tc's request mix, generating until
/// `stop_at`.
inline ClientLoad machine_load(const TrialConfig& tc,
                               const simnet::Cluster& cluster,
                               double offered_rate, Time stop_at) {
  const auto machines = static_cast<double>(cluster.clients.size());
  return {.rate_per_s = offered_rate / machines, .write_ratio = tc.write_ratio,
          .num_keys = tc.num_keys, .key_dist = tc.key_dist,
          .zipf_theta = tc.zipf_theta, .stop_at = stop_at};
}

/// Attaches one OpenLoopClient per client machine, spreading `offered_rate`
/// evenly and connecting each machine to every server in its own rack/DC
/// (the paper's client placement). Generation stops at `stop_at`.
inline std::vector<std::unique_ptr<OpenLoopClient>> attach_clients(
    const TrialConfig& tc, const simnet::Cluster& cluster,
    runtime::Host& net, std::shared_ptr<LatencyRecorder> recorder,
    double offered_rate, std::uint64_t trial_seed, Time stop_at) {
  const ClientLoad load = machine_load(tc, cluster, offered_rate, stop_at);
  const std::vector<std::vector<NodeId>> groups = group_servers(tc, cluster);
  std::vector<std::unique_ptr<OpenLoopClient>> clients;
  clients.reserve(cluster.clients.size());
  Rng seeder(derive_seed(trial_seed, 0xc11e57ULL));
  for (const NodeId machine : cluster.clients) {
    // Paper: each client connects to a uniformly-selected node in the same
    // rack/DC. A machine aggregates many client sessions, spread evenly
    // over every same-group server.
    const int group = tc.wan ? cluster.topo.dc_of(machine)
                             : cluster.topo.rack_of(machine);
    ClientConfig cc{load, groups[static_cast<std::size_t>(group)]};
    clients.push_back(
        std::make_unique<OpenLoopClient>(std::move(cc), recorder, seeder()));
    net.attach(machine, *clients.back());
  }
  return clients;
}

}  // namespace canopus::workload
