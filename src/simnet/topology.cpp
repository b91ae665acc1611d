#include "simnet/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace canopus::simnet {

NodeId Topology::add_node(int site, LinkId up, LinkId down) {
  assert(up < num_links() && down < num_links());
  note_site(site);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRoute{site, up, down});
  return id;
}

LinkId Topology::add_link(Time latency, double bytes_per_ns, int site) {
  assert(latency >= 0 && bytes_per_ns > 0);
  note_site(site);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(LinkSpec{latency, bytes_per_ns});
  link_site_.push_back(site);
  return id;
}

void Topology::set_core(int from, int to,
                        std::initializer_list<LinkId> links) {
  if (from == to || links.size() > Path::kMaxCore)
    throw std::invalid_argument("set_core: same site or too many links");
  note_site(from);
  note_site(to);
  Core& c = core_[static_cast<std::size_t>(from) * sites_ +
                  static_cast<std::size_t>(to)];
  c.size = 0;
  for (LinkId l : links) c.links[c.size++] = l;
}

void Topology::note_site(int site) {
  assert(site >= 0);
  const auto n = static_cast<std::size_t>(site) + 1;
  if (n <= sites_) return;
  std::vector<Core> wider(n * n);
  for (std::size_t a = 0; a < sites_; ++a)
    for (std::size_t b = 0; b < sites_; ++b)
      wider[a * n + b] = core_[a * sites_ + b];
  core_ = std::move(wider);
  sites_ = n;
}

namespace {

/// Calls fn(from, to, latency) for every shard crossing of every route: a
/// hop whose link lies in shard `from` and the next hop's in `to` != from.
/// Throws std::invalid_argument unless each node's NIC links lie in its
/// own shard and a site's nodes share one shard. Then a route within a
/// site never crosses, and a route a -> b between sites crosses as the
/// route between the two sites' first nodes does, save that its first hop
/// is a's uplink. So one route per ordered pair of sites that hold nodes
/// stands for all of them, its first hop at the sending site's least
/// uplink latency, and a crossing repeated across routes may be reported
/// once. O(nodes + sites^2).
template <typename Fn>
void for_each_crossing(const Topology& t, const ShardMap& map, Fn&& fn) {
  if (t.num_nodes() < 2) return;  // no routes
  std::vector<NodeId> first(t.num_sites(), kInvalidNode);
  std::vector<Time> least_up(t.num_sites(), kTimeInf);
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    const std::uint32_t shard = map.node_shard[i];
    if (map.link_shard[t.uplink(i)] != shard ||
        map.link_shard[t.downlink(i)] != shard)
      throw std::invalid_argument(
          "shard map: path endpoints not owned by their node's shard");
    const auto site = static_cast<std::size_t>(t.site_of(i));
    if (first[site] == kInvalidNode) first[site] = i;
    if (map.node_shard[first[site]] != shard)
      throw std::invalid_argument("shard map: a site's nodes span shards");
    least_up[site] = std::min(least_up[site], t.link(t.uplink(i)).latency);
  }
  for (std::size_t a = 0; a < first.size(); ++a) {
    if (first[a] == kInvalidNode) continue;
    for (std::size_t b = 0; b < first.size(); ++b) {
      if (b == a || first[b] == kInvalidNode) continue;
      const Path p = t.path(first[a], first[b]);
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        const std::uint32_t from = map.link_shard[p[h]];
        const std::uint32_t to = map.link_shard[p[h + 1]];
        if (from != to)
          fn(from, to, h == 0 ? least_up[a] : t.link(p[h]).latency);
      }
    }
  }
}

}  // namespace

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

std::vector<Time> min_cut_matrix(const Topology& topo, const ShardMap& map) {
  const std::size_t k = map.num_shards;
  std::vector<Time> m(k * k, kTimeInf);
  for_each_crossing(topo, map,
                    [&](std::uint32_t a, std::uint32_t b, Time latency) {
                      m[a * k + b] = std::min(m[a * k + b], latency);
                    });
  return m;
}

ShardMap make_shard_map(const Topology& topo, unsigned requested) {
  const auto sites = static_cast<unsigned>(topo.num_sites());
  ShardMap map;
  map.num_shards = std::max(1u, std::min(requested, sites));
  map.node_shard.resize(topo.num_nodes());
  map.link_shard.resize(topo.num_links());
  for (NodeId i = 0; i < topo.num_nodes(); ++i)
    map.node_shard[i] =
        static_cast<std::uint32_t>(topo.site_of(i)) % map.num_shards;
  for (LinkId l = 0; l < topo.num_links(); ++l)
    map.link_shard[l] =
        static_cast<std::uint32_t>(topo.site_of_link(l)) % map.num_shards;

  // Conservative-PDES validity: the send event (source node) must own the
  // first hop, the delivery event (destination node) the last hop, and any
  // crossing in between carries the crossed link's latency as lookahead —
  // which therefore must be positive.
  for_each_crossing(topo, map, [](std::uint32_t, std::uint32_t, Time latency) {
    if (latency <= 0)
      throw std::invalid_argument(
          "shard map: zero-latency shard crossing (no lookahead)");
  });
  return map;
}

// Link and node ids are PDES lanes (DESIGN.md §10.2), so the builders'
// creation order is part of every golden: aggregation links first, then
// each machine's uplink before its downlink, then the WAN links in
// source-major order.

Cluster build_multi_rack(const RackConfig& cfg) {
  Cluster c;
  Topology& t = c.topo;

  std::vector<LinkId> agg_up(cfg.racks), agg_down(cfg.racks);
  for (int r = 0; r < cfg.racks; ++r) {
    agg_up[r] = t.add_link(cfg.uplink_latency, gbps(kUplinkGbps), r);
    agg_down[r] = t.add_link(cfg.uplink_latency, gbps(kUplinkGbps), r);
  }
  for (int a = 0; a < cfg.racks; ++a)
    for (int b = 0; b < cfg.racks; ++b)
      if (a != b) t.set_core(a, b, {agg_up[a], agg_down[b]});

  auto add_machine = [&](int rack) {
    const LinkId up = t.add_link(cfg.nic_latency, gbps(cfg.nic_gbps), rack);
    const LinkId down = t.add_link(cfg.nic_latency, gbps(cfg.nic_gbps), rack);
    return t.add_node(rack, up, down);
  };

  for (int r = 0; r < cfg.racks; ++r) {
    for (int s = 0; s < cfg.servers_per_rack; ++s)
      c.servers.push_back(add_machine(r));
    for (int k = 0; k < cfg.clients_per_rack; ++k)
      c.clients.push_back(add_machine(r));
  }
  return c;
}

Cluster build_multi_dc(const WanConfig& cfg) {
  if (cfg.rtt_ms.size() < cfg.servers_per_dc.size())
    throw std::invalid_argument("rtt matrix smaller than datacenter count");

  Cluster c;
  Topology& t = c.topo;
  const int dcs = static_cast<int>(cfg.servers_per_dc.size());

  // Node <-> DC-edge latency: a quarter of the intra-DC RTT so that a
  // same-DC round trip (4 hops) matches the Table 1 diagonal.
  auto edge_latency = [&](int dc) {
    return static_cast<Time>(cfg.rtt_ms[dc][dc] / 4.0 * kMillisecond);
  };

  auto add_machine = [&](int dc) {
    const LinkId up = t.add_link(edge_latency(dc), gbps(kWanNicGbps), dc);
    const LinkId down = t.add_link(edge_latency(dc), gbps(kWanNicGbps), dc);
    return t.add_node(dc, up, down);
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
      t.set_core(i, j, {t.add_link(one_way, gbps(kWanLinkGbps), i)});
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
