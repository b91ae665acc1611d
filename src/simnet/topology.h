// Static network topology: nodes, links and the routes between them.
//
// The builders mirror the two testbeds in the paper's evaluation (§8):
//
//  * build_multi_rack — the single-datacenter cluster: racks of machines
//    behind ToR switches, ToR switches joined by an oversubscribed
//    aggregation switch (Mellanox SX1012s, 10 Gb NICs, 2x10 Gb uplinks).
//  * build_multi_dc  — the EC2 deployment: datacenters joined by WAN links
//    parameterized by the paper's Table 1 RTT matrix.
//
// Both are hierarchies of SITES (a rack, or a datacenter on the WAN), so a
// route is never stored: it is the sender's NIC uplink, the CORE links
// between the two endpoints' sites, and the receiver's NIC downlink
// (DESIGN.md §4.1). Route state is O(nodes + sites^2).
//
// A Topology is immutable once built; all mutable link/node state lives in
// Network.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
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

/// A routed path a -> b as a small value: a's NIC uplink, the core links
/// from a's site to b's (none within a site), b's NIC downlink.
class Path {
 public:
  /// Core links per site pair: a rack pair crosses the source rack's
  /// aggregation uplink and the destination rack's downlink.
  static constexpr std::size_t kMaxCore = 2;

  std::size_t size() const { return size_; }
  LinkId operator[](std::size_t i) const { return links_[i]; }
  LinkId front() const { return links_[0]; }
  LinkId back() const { return links_[size_ - 1]; }
  const LinkId* begin() const { return links_.data(); }
  const LinkId* end() const { return links_.data() + size_; }

 private:
  friend class Topology;
  std::array<LinkId, kMaxCore + 2> links_{};
  std::uint32_t size_ = 0;
};

class Topology {
 public:
  /// A node in `site` with its NIC `up` (node -> switch) and `down` links.
  NodeId add_node(int site, LinkId up, LinkId down);
  /// `site` tags the link with the site that OWNS it for sharded
  /// simulation: the builders tag NIC links with their node's site,
  /// aggregation links with their rack, and each WAN link with its SOURCE
  /// datacenter, so a message crosses shards only along a positive-latency
  /// link (see make_shard_map / DESIGN.md §10).
  LinkId add_link(Time latency, double bytes_per_ns, int site = 0);
  /// Sets the links a message crosses from site `from` to site `to` (at
  /// most Path::kMaxCore, `from` != `to`). Unset pairs have none.
  void set_core(int from, int to, std::initializer_list<LinkId> links);

  /// The route a -> b (a != b), computed from the node and core tables.
  Path path(NodeId a, NodeId b) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }
  /// One more than the largest site of any node, link or core pair.
  std::size_t num_sites() const { return sites_; }
  const LinkSpec& link(LinkId id) const { return links_[id]; }

  int site_of(NodeId n) const { return nodes_[n].site; }
  int site_of_link(LinkId l) const { return link_site_[l]; }
  /// Node n's NIC uplink, the first hop of every route from n, and its
  /// downlink, the last hop of every route to n.
  LinkId uplink(NodeId n) const { return nodes_[n].up; }
  LinkId downlink(NodeId n) const { return nodes_[n].down; }

  /// Minimum end-to-end latency a -> b for an empty network and a message of
  /// `bytes` bytes (propagation + serialization, no queueing, no CPU).
  Time base_latency(NodeId a, NodeId b, std::size_t bytes) const;

 private:
  struct NodeRoute {
    int site;
    LinkId up, down;
  };
  struct Core {
    std::array<LinkId, Path::kMaxCore> links{};
    std::uint32_t size = 0;
  };

  /// Widens the core table to cover `site`.
  void note_site(int site);

  std::vector<LinkSpec> links_;
  std::vector<int> link_site_;
  std::vector<NodeRoute> nodes_;
  std::vector<Core> core_;  ///< [from * sites_ + to]
  std::size_t sites_ = 0;
};

inline Path Topology::path(NodeId a, NodeId b) const {
  static_assert(Path::kMaxCore == 2, "path() copies both core slots");
  const NodeRoute& src = nodes_[a];
  const NodeRoute& dst = nodes_[b];
  Path p;
  p.links_[0] = src.up;
  p.size_ = 1;
  if (src.site != dst.site) {
    const Core& c = core_[static_cast<std::size_t>(src.site) * sites_ +
                          static_cast<std::size_t>(dst.site)];
    p.links_[1] = c.links[0];
    p.links_[2] = c.links[1];
    p.size_ += c.size;
  }
  p.links_[p.size_++] = dst.down;
  return p;
}

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
/// when a path endpoint lies in a foreign shard or a crossing has zero
/// latency. O(nodes + sites^2).
ShardMap make_shard_map(const Topology& topo, unsigned requested);

/// The PDES lookahead: a dense num_shards^2 matrix (row-major,
/// [from * num_shards + to]) of the minimum one-way latency over every link
/// at which a routed message hands over from shard `from` to shard `to`
/// (the link whose arrival event schedules the next hop into the other
/// shard); kTimeInf where no route crosses. Throws std::invalid_argument
/// unless `map` keeps each site's nodes, and their NIC links, in one shard,
/// as make_shard_map's maps do. O(nodes + sites^2).
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
