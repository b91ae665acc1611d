// Static network topology: nodes, links and routed paths.
//
// The builders mirror the two testbeds in the paper's evaluation (§8):
//
//  * build_multi_rack — the single-datacenter cluster: racks of machines
//    behind ToR switches, ToR switches joined by an oversubscribed
//    aggregation switch (Mellanox SX1012s, 10 Gb NICs, 2x10 Gb uplinks).
//  * build_multi_dc  — the EC2 deployment: datacenters joined by WAN links
//    parameterized by the paper's Table 1 RTT matrix.
//
// A Topology is immutable once built; all mutable link/node state lives in
// Network.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace canopus::simnet {

using LinkId = std::uint32_t;

struct LinkSpec {
  Time latency = 0;         ///< one-way propagation delay, ns
  double bytes_per_ns = 0;  ///< capacity (10 Gb/s = 1.25 B/ns)
};

/// Converts gigabits per second to bytes per nanosecond.
constexpr double gbps(double g) { return g / 8.0; }

struct ShardMap;

class Topology {
 public:
  NodeId add_node(int rack, int dc);
  /// `site` tags the link with the locality group (rack or datacenter) that
  /// OWNS it for sharded simulation: the builders tag NIC links with their
  /// node's site, aggregation links with their rack, and each WAN link with
  /// its SOURCE datacenter, so a message crosses shards only along a
  /// positive-latency link (see make_shard_map / DESIGN.md §10).
  LinkId add_link(Time latency, double bytes_per_ns, int site = 0);

  /// Sets the directed path a -> b as an ordered list of links.
  void set_path(NodeId a, NodeId b, std::vector<LinkId> links);

  const std::vector<LinkId>& path(NodeId a, NodeId b) const;

  std::size_t num_nodes() const { return rack_.size(); }
  std::size_t num_links() const { return links_.size(); }
  const LinkSpec& link(LinkId id) const { return links_[id]; }

  int rack_of(NodeId n) const { return rack_[n]; }
  int dc_of(NodeId n) const { return dc_[n]; }
  int site_of_link(LinkId l) const { return link_site_[l]; }

  /// Minimum end-to-end latency a -> b for an empty network and a message of
  /// `bytes` bytes (propagation + serialization, no queueing, no CPU).
  Time base_latency(NodeId a, NodeId b, std::size_t bytes) const;

  /// The PDES lookahead source: the minimum one-way latency over every link
  /// at which a routed message hands over from shard `a` to shard `b` (the
  /// link whose arrival event schedules the next hop into the other shard).
  /// kTimeInf when no path crosses a -> b. O(paths * hops); compute once.
  Time min_cut_latency(const ShardMap& map, std::uint32_t a,
                       std::uint32_t b) const;

 private:
  std::vector<LinkSpec> links_;
  std::vector<int> rack_;
  std::vector<int> dc_;
  std::vector<int> link_site_;
  std::vector<std::vector<LinkId>> paths_;  // dense n*n once finalized
  std::size_t path_stride_ = 0;

  void ensure_path_table();
};

/// Node/link -> shard assignment for the sharded (PDES) simulation kernel.
/// Shards partition SITES (racks in build_multi_rack, datacenters in
/// build_multi_dc), so every intra-site event stays shard-local and every
/// cross-shard hand-off rides a tagged positive-latency link.
struct ShardMap {
  std::vector<std::uint32_t> node_shard;
  std::vector<std::uint32_t> link_shard;
  std::uint32_t num_shards = 1;
};

/// Builds a ShardMap with min(requested, number of sites) shards (sites are
/// folded round-robin when requested < sites) and validates the partition
/// for conservative PDES: each routed path must start and end in its
/// endpoint's shard, and every shard-crossing link must have latency > 0
/// (the crossing latency IS the lookahead). Throws std::invalid_argument
/// on a zero-lookahead crossing.
ShardMap make_shard_map(const Topology& topo, unsigned requested);

/// Dense num_shards^2 matrix of min_cut_latency values (row-major,
/// [from * num_shards + to]); one path scan for all pairs.
std::vector<Time> min_cut_matrix(const Topology& topo, const ShardMap& map);

/// A built cluster: the topology plus which nodes are consensus servers and
/// which are client machines.
struct Cluster {
  Topology topo;
  std::vector<NodeId> servers;
  std::vector<NodeId> clients;
};

struct RackConfig {
  int racks = 3;
  int servers_per_rack = 3;
  int clients_per_rack = 5;
  double nic_gbps = 10.0;
  Time nic_latency = 1'500;     ///< node <-> ToR one way
  Time uplink_latency = 2'000;  ///< ToR <-> aggregation one way
};

/// ToR <-> aggregation bandwidth of the rack testbed: 2 x 10 Gb.
inline constexpr double kUplinkGbps = 20.0;

/// Single-datacenter testbed (§8.1). Oversubscription emerges naturally:
/// servers_per_rack x nic_gbps vs kUplinkGbps.
Cluster build_multi_rack(const RackConfig& cfg);

struct WanConfig {
  std::vector<int> servers_per_dc;
  std::vector<int> clients_per_dc;
  /// Full RTT matrix in milliseconds; diagonal entries are intra-DC RTTs.
  std::vector<std::vector<double>> rtt_ms;
};

/// Bandwidths of the WAN testbed: each node's NIC, and each inter-DC link.
inline constexpr double kWanNicGbps = 10.0;
inline constexpr double kWanLinkGbps = 10.0;

/// Multi-datacenter testbed (§8.2).
Cluster build_multi_dc(const WanConfig& cfg);

/// The paper's Table 1: RTTs in ms between IR, CA, VA, TK, OR, SY, FF
/// (Ireland, California, Virginia, Tokyo, Oregon, Sydney, Frankfurt).
const std::vector<std::vector<double>>& table1_rtt_ms();

/// Names of the Table 1 sites, in matrix order.
const std::vector<const char*>& table1_site_names();

}  // namespace canopus::simnet
