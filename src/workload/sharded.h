// ShardedService: N independent consensus groups behind one hash-
// partitioned keyspace — the production shape of a multi-group deployment
// (ZooKeeper/etcd-style; Canopus super-leaves map naturally onto shards).
//
// Composition with the simulator's own sharding: the sharded deployment
// places one consensus group per rack (build_cluster with groups = rack
// count), and make_shard_map assigns one PDES event shard per rack — so
// consensus groups and simulation shards coincide, and a sharded trial
// parallelizes along exactly the boundary where the system itself is
// partitioned. All cross-group traffic is client traffic.
//
// Pieces:
//  * ShardedService — owns one ConsensusService per group (any of the four
//    systems via make_group_service), group g serving servers
//    [g*per_group, (g+1)*per_group) of the cluster, addressed by group or
//    by fleet index.
//  * attach_router_clients — RouterClient machines (router_client.h):
//    hash-routed, redirect-on-crash, bounded-backoff clients hosting flat
//    per-session cursors (the million-client workload plane).
// A Trial with sessions_per_machine > 0 (workload/trial.h) runs this
// deployment, with per-group storms (chaos_storm) and one HistoryAuditor
// per group: cross-group commit order is undefined by construction (groups
// are independent state machines over disjoint keys), so prefix/lost-write/
// read audits only make sense within a group.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "workload/deployments.h"
#include "workload/router_client.h"

namespace canopus::workload {

/// A sharded deployment: `tc.groups` consensus groups of `tc.per_group`
/// servers each, one group per rack/DC, `tc.system` everywhere.
class ShardedService {
 public:
  ShardedService(const TrialConfig& tc, const simnet::Cluster& cluster,
                 runtime::Host& net) {
    const std::size_t groups = static_cast<std::size_t>(tc.groups);
    const std::size_t per = static_cast<std::size_t>(tc.per_group);
    if (cluster.servers.size() != groups * per)
      throw std::invalid_argument(
          "ShardedService: cluster/server-count mismatch");
    group_servers_.resize(groups);
    groups_.reserve(groups);
    for (std::size_t g = 0; g < groups; ++g) {
      group_servers_[g].assign(cluster.servers.begin() + g * per,
                               cluster.servers.begin() + (g + 1) * per);
      groups_.push_back(
          make_group_service(tc, group_servers_[g], cluster.topo, net));
    }
  }

  std::size_t num_groups() const { return groups_.size(); }
  std::size_t servers_per_group() const { return group_servers_[0].size(); }

  ConsensusService& group(std::size_t g) { return *groups_[g]; }
  const ConsensusService& group(std::size_t g) const { return *groups_[g]; }
  const std::vector<std::vector<NodeId>>& group_servers() const {
    return group_servers_;
  }

  // Fleet-indexed fault entry points (indices group-major, as laid out by
  // build_cluster — the FaultScenario vocabulary).
  void crash(std::size_t fleet_index) {
    groups_[fleet_index / servers_per_group()]->crash(fleet_index %
                                                      servers_per_group());
  }
  bool recover(std::size_t fleet_index) {
    return groups_[fleet_index / servers_per_group()]->recover(
        fleet_index % servers_per_group());
  }

  /// Every group's service, in group order (for arm_via_service).
  std::vector<ConsensusService*> services() const {
    std::vector<ConsensusService*> out;
    for (const auto& g : groups_) out.push_back(g.get());
    return out;
  }

 private:
  std::vector<std::unique_ptr<ConsensusService>> groups_;
  std::vector<std::vector<NodeId>> group_servers_;
};

/// Attaches one RouterClient per client machine, spreading `offered_rate`
/// evenly; each machine hosts `sessions_per_machine` client sessions.
/// Session identity is per machine (RequestId.seq's upper bits, see
/// RouterClient::kSessionShift); RequestId.client stays the machine's
/// NodeId because every protocol routes its replies to it.
inline std::vector<std::unique_ptr<RouterClient>> attach_router_clients(
    const TrialConfig& tc, std::uint32_t sessions_per_machine,
    const simnet::Cluster& cluster, const ShardedService& svc,
    runtime::Host& net, std::shared_ptr<LatencyRecorder> recorder,
    double offered_rate, std::uint64_t trial_seed, Time stop_at) {
  const double per_machine_rate =
      offered_rate / static_cast<double>(cluster.clients.size());
  Rng seeder(derive_seed(trial_seed, 0x40757e5ULL));
  std::vector<std::unique_ptr<RouterClient>> routers;
  routers.reserve(cluster.clients.size());
  for (std::size_t i = 0; i < cluster.clients.size(); ++i) {
    RouterConfig rc;
    rc.groups = svc.group_servers();
    rc.sessions = sessions_per_machine;
    rc.rate_per_s = per_machine_rate;
    rc.write_ratio = tc.write_ratio;
    rc.num_keys = tc.num_keys;
    rc.key_dist = tc.key_dist;
    rc.zipf_theta = tc.zipf_theta;
    rc.stop_at = stop_at;
    routers.push_back(
        std::make_unique<RouterClient>(rc, recorder, seeder()));
    net.attach(cluster.clients[i], *routers.back());
  }
  return routers;
}

}  // namespace canopus::workload
