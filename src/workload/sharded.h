// The sharded deployment: N independent consensus groups behind one hash-
// partitioned keyspace — the production shape of a multi-group deployment
// (ZooKeeper/etcd-style; Canopus super-leaves map naturally onto shards).
//
// Composition with the simulator's own sharding: the sharded deployment
// places one consensus group per rack (build_cluster with groups = rack
// count), and make_shard_map assigns one PDES event shard per rack — so
// consensus groups and simulation shards coincide, and a sharded trial
// parallelizes along exactly the boundary where the system itself is
// partitioned. All cross-group traffic is client traffic, from
// RouterClient machines (router_client.h).
//
// A Trial with sessions_per_machine > 0 (workload/trial.h) runs this
// deployment, with per-group storms (chaos_storm) and one HistoryAuditor
// per group: cross-group commit order is undefined by construction (groups
// are independent state machines over disjoint keys), so prefix/lost-write/
// read audits only make sense within a group.
#pragma once

#include <memory>
#include <vector>

#include "workload/deployments.h"
#include "workload/router_client.h"

namespace canopus::workload {

/// A sharded deployment's groups: `tc.groups` consensus groups of
/// `tc.per_group` servers each, one group per rack/DC, `tc.system`
/// everywhere. The services must outlive the simulation run.
inline std::vector<std::unique_ptr<ConsensusService>> make_group_services(
    const TrialConfig& tc, const simnet::Cluster& cluster,
    runtime::Host& host) {
  std::vector<std::unique_ptr<ConsensusService>> groups;
  for (std::vector<NodeId>& servers : group_servers(tc, cluster))
    groups.push_back(
        make_group_service(tc, std::move(servers), cluster.topo, host));
  return groups;
}

/// Attaches one RouterClient per client machine, spreading `offered_rate`
/// evenly; each machine hosts `sessions_per_machine` client sessions and
/// routes to the groups of make_group_services. Session identity is per
/// machine (RequestId.seq's upper bits, see RouterClient::kSessionShift);
/// RequestId.client stays the machine's NodeId because every protocol
/// routes its replies to it.
inline std::vector<std::unique_ptr<RouterClient>> attach_router_clients(
    const TrialConfig& tc, std::uint32_t sessions_per_machine,
    const simnet::Cluster& cluster, runtime::Host& host,
    std::shared_ptr<LatencyRecorder> recorder, double offered_rate,
    std::uint64_t trial_seed, Time stop_at) {
  const RouterConfig rc{machine_load(tc, cluster, offered_rate, stop_at),
                        group_servers(tc, cluster), sessions_per_machine};
  Rng seeder(derive_seed(trial_seed, 0x40757e5ULL));
  std::vector<std::unique_ptr<RouterClient>> routers;
  routers.reserve(cluster.clients.size());
  for (const NodeId machine : cluster.clients) {
    routers.push_back(std::make_unique<RouterClient>(rc, recorder, seeder()));
    host.attach(machine, *routers.back());
  }
  return routers;
}

}  // namespace canopus::workload
