#include "simnet/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace canopus::simnet {

NodeId Topology::add_node(int rack, int dc) {
  const NodeId id = static_cast<NodeId>(rack_.size());
  rack_.push_back(rack);
  dc_.push_back(dc);
  path_stride_ = 0;  // invalidate path table layout
  return id;
}

LinkId Topology::add_link(Time latency, double bytes_per_ns, int site) {
  assert(latency >= 0 && bytes_per_ns > 0);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(LinkSpec{latency, bytes_per_ns});
  link_site_.push_back(site);
  return id;
}

void Topology::ensure_path_table() {
  if (path_stride_ == num_nodes() && path_stride_ != 0) return;
  path_stride_ = num_nodes();
  paths_.assign(path_stride_ * path_stride_, {});
}

void Topology::set_path(NodeId a, NodeId b, std::vector<LinkId> links) {
  ensure_path_table();
  paths_[a * path_stride_ + b] = std::move(links);
}

const std::vector<LinkId>& Topology::path(NodeId a, NodeId b) const {
  assert(path_stride_ == num_nodes());
  return paths_[a * path_stride_ + b];
}

Time Topology::base_latency(NodeId a, NodeId b, std::size_t bytes) const {
  Time t = 0;
  for (LinkId l : path(a, b)) {
    const LinkSpec& spec = links_[l];
    t += spec.latency +
         static_cast<Time>(std::llround(static_cast<double>(bytes) /
                                        spec.bytes_per_ns));
  }
  return t;
}

Time Topology::min_cut_latency(const ShardMap& map, std::uint32_t a,
                               std::uint32_t b) const {
  Time best = kTimeInf;
  const std::size_t n = num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::vector<LinkId>& p = path(s, d);
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        // Only true crossings: consecutive links in the SAME shard (always
        // when a == b, and under folded maps even across sites) are plain
        // local scheduling, not a hand-off.
        if (map.link_shard[p[h]] != map.link_shard[p[h + 1]] &&
            map.link_shard[p[h]] == a && map.link_shard[p[h + 1]] == b)
          best = std::min(best, links_[p[h]].latency);
      }
    }
  }
  return best;
}

std::vector<Time> min_cut_matrix(const Topology& topo, const ShardMap& map) {
  const std::size_t k = map.num_shards;
  std::vector<Time> m(k * k, kTimeInf);
  const std::size_t n = topo.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::vector<LinkId>& p = topo.path(s, d);
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        const std::uint32_t a = map.link_shard[p[h]];
        const std::uint32_t b = map.link_shard[p[h + 1]];
        if (a != b)
          m[a * k + b] = std::min(m[a * k + b], topo.link(p[h]).latency);
      }
    }
  }
  return m;
}

ShardMap make_shard_map(const Topology& topo, unsigned requested) {
  // Sites are the builders' locality groups: rack_of covers both builders
  // (build_multi_dc assigns rack == dc).
  int max_site = 0;
  for (NodeId i = 0; i < topo.num_nodes(); ++i)
    max_site = std::max(max_site, topo.rack_of(i));
  for (LinkId l = 0; l < topo.num_links(); ++l)
    max_site = std::max(max_site, topo.site_of_link(l));
  const unsigned sites = static_cast<unsigned>(max_site) + 1;

  ShardMap map;
  map.num_shards = std::max(1u, std::min(requested, sites));
  map.node_shard.resize(topo.num_nodes());
  map.link_shard.resize(topo.num_links());
  for (NodeId i = 0; i < topo.num_nodes(); ++i)
    map.node_shard[i] =
        static_cast<std::uint32_t>(topo.rack_of(i)) % map.num_shards;
  for (LinkId l = 0; l < topo.num_links(); ++l)
    map.link_shard[l] =
        static_cast<std::uint32_t>(topo.site_of_link(l)) % map.num_shards;

  // Conservative-PDES validity: the send event (source node) must own the
  // first hop, the delivery event (destination node) the last hop, and any
  // crossing in between carries the crossed link's latency as lookahead —
  // which therefore must be positive.
  const std::size_t n = topo.num_nodes();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      const std::vector<LinkId>& p = topo.path(s, d);
      if (p.empty()) continue;
      if (map.link_shard[p.front()] != map.node_shard[s] ||
          map.link_shard[p.back()] != map.node_shard[d])
        throw std::invalid_argument(
            "shard map: path endpoints not owned by their node's shard");
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        if (map.link_shard[p[h]] != map.link_shard[p[h + 1]] &&
            topo.link(p[h]).latency <= 0)
          throw std::invalid_argument(
              "shard map: zero-latency shard crossing (no lookahead)");
      }
    }
  }
  return map;
}

Cluster build_multi_rack(const RackConfig& cfg) {
  Cluster c;
  Topology& t = c.topo;

  struct NodeLinks {
    LinkId up, down;
  };
  std::vector<NodeLinks> node_links;
  std::vector<LinkId> agg_up(cfg.racks), agg_down(cfg.racks);

  for (int r = 0; r < cfg.racks; ++r) {
    agg_up[r] = t.add_link(cfg.uplink_latency, gbps(kUplinkGbps), r);
    agg_down[r] = t.add_link(cfg.uplink_latency, gbps(kUplinkGbps), r);
  }

  auto add_machine = [&](int rack) {
    const NodeId id = t.add_node(rack, /*dc=*/0);
    node_links.push_back(NodeLinks{
        t.add_link(cfg.nic_latency, gbps(cfg.nic_gbps), rack),
        t.add_link(cfg.nic_latency, gbps(cfg.nic_gbps), rack),
    });
    return id;
  };

  for (int r = 0; r < cfg.racks; ++r) {
    for (int s = 0; s < cfg.servers_per_rack; ++s)
      c.servers.push_back(add_machine(r));
    for (int k = 0; k < cfg.clients_per_rack; ++k)
      c.clients.push_back(add_machine(r));
  }

  const std::size_t n = t.num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<LinkId> path{node_links[a].up};
      if (t.rack_of(a) != t.rack_of(b)) {
        path.push_back(agg_up[t.rack_of(a)]);
        path.push_back(agg_down[t.rack_of(b)]);
      }
      path.push_back(node_links[b].down);
      t.set_path(a, b, std::move(path));
    }
  }
  return c;
}

Cluster build_multi_dc(const WanConfig& cfg) {
  if (cfg.rtt_ms.size() < cfg.servers_per_dc.size())
    throw std::invalid_argument("rtt matrix smaller than datacenter count");

  Cluster c;
  Topology& t = c.topo;
  const int dcs = static_cast<int>(cfg.servers_per_dc.size());

  struct NodeLinks {
    LinkId up, down;
  };
  std::vector<NodeLinks> node_links;

  // Node <-> DC-edge latency: a quarter of the intra-DC RTT so that a
  // same-DC round trip (4 hops) matches the Table 1 diagonal.
  auto edge_latency = [&](int dc) {
    return static_cast<Time>(cfg.rtt_ms[dc][dc] / 4.0 * kMillisecond);
  };

  auto add_machine = [&](int dc) {
    const NodeId id = t.add_node(/*rack=*/dc, dc);
    node_links.push_back(NodeLinks{
        t.add_link(edge_latency(dc), gbps(kWanNicGbps), dc),
        t.add_link(edge_latency(dc), gbps(kWanNicGbps), dc),
    });
    return id;
  };

  for (int d = 0; d < dcs; ++d) {
    for (int s = 0; s < cfg.servers_per_dc[d]; ++s)
      c.servers.push_back(add_machine(d));
    const int clients =
        d < static_cast<int>(cfg.clients_per_dc.size()) ? cfg.clients_per_dc[d] : 0;
    for (int k = 0; k < clients; ++k) c.clients.push_back(add_machine(d));
  }

  // One WAN link per ordered DC pair. One-way latency is half the RTT minus
  // the edge hops so that end-to-end node RTT matches the matrix entry.
  std::vector<std::vector<LinkId>> wan(dcs, std::vector<LinkId>(dcs));
  for (int i = 0; i < dcs; ++i) {
    for (int j = 0; j < dcs; ++j) {
      if (i == j) continue;
      const double rtt =
          cfg.rtt_ms[i][j] > 0 ? cfg.rtt_ms[i][j] : cfg.rtt_ms[j][i];
      Time one_way = static_cast<Time>(rtt / 2.0 * kMillisecond) -
                     edge_latency(i) - edge_latency(j);
      if (one_way < 0) one_way = 0;
      // Owned by the SOURCE datacenter: the wan-link arrival event (which
      // schedules the next hop into the destination shard) executes in the
      // sender's shard, making the wan latency the cross-shard lookahead.
      wan[i][j] = t.add_link(one_way, gbps(kWanLinkGbps), i);
    }
  }

  const std::size_t n = t.num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      std::vector<LinkId> path{node_links[a].up};
      if (t.dc_of(a) != t.dc_of(b)) path.push_back(wan[t.dc_of(a)][t.dc_of(b)]);
      path.push_back(node_links[b].down);
      t.set_path(a, b, std::move(path));
    }
  }
  return c;
}

const std::vector<std::vector<double>>& table1_rtt_ms() {
  // Paper Table 1. The lower triangle holds inter-site RTTs; the diagonal
  // holds intra-site RTTs. Mirrored here for convenience.
  static const std::vector<std::vector<double>> m = [] {
    std::vector<std::vector<double>> v{
        // IR     CA     VA     TK     OR     SY     FF
        {0.20, 0, 0, 0, 0, 0, 0},               // IR
        {133, 0.20, 0, 0, 0, 0, 0},             // CA
        {66, 60, 0.25, 0, 0, 0, 0},             // VA
        {243, 113, 145, 0.13, 0, 0, 0},         // TK
        {154, 20, 80, 100, 0.26, 0, 0},         // OR
        {295, 168, 226, 103, 161, 0.20, 0},     // SY
        {22, 145, 89, 226, 156, 322, 0.23},     // FF
    };
    for (std::size_t i = 0; i < v.size(); ++i)
      for (std::size_t j = i + 1; j < v.size(); ++j) v[i][j] = v[j][i];
    return v;
  }();
  return m;
}

const std::vector<const char*>& table1_site_names() {
  static const std::vector<const char*> names{"IR", "CA", "VA", "TK",
                                              "OR", "SY", "FF"};
  return names;
}

}  // namespace canopus::simnet
