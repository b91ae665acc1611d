#include "simnet/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

namespace canopus::simnet {
namespace {

TEST(Topology, MultiRackCounts) {
  RackConfig cfg;
  cfg.racks = 3;
  cfg.servers_per_rack = 3;
  cfg.clients_per_rack = 5;
  Cluster c = build_multi_rack(cfg);
  EXPECT_EQ(c.servers.size(), 9u);
  EXPECT_EQ(c.clients.size(), 15u);
  EXPECT_EQ(c.topo.num_nodes(), 24u);
}

TEST(Topology, RackAssignment) {
  RackConfig cfg;
  cfg.racks = 2;
  cfg.servers_per_rack = 3;
  cfg.clients_per_rack = 1;
  Cluster c = build_multi_rack(cfg);
  EXPECT_EQ(c.topo.site_of(c.servers[0]), 0);
  EXPECT_EQ(c.topo.site_of(c.servers[2]), 0);
  EXPECT_EQ(c.topo.site_of(c.servers[3]), 1);
  EXPECT_EQ(c.topo.site_of(c.clients[1]), 1);
}

// Every ordered pair of a 3-rack and a 3-DC cluster: a route is the
// sender's NIC uplink, the core links between the two sites, and the
// receiver's NIC downlink, and each end link belongs to its node's site.
TEST(Topology, EveryRackPairRoutesThroughItsAggregationLinks) {
  RackConfig cfg;  // 3 racks x (3 servers + 5 clients)
  Cluster c = build_multi_rack(cfg);
  const Topology& t = c.topo;
  ASSERT_EQ(t.num_sites(), 3u);
  std::map<int, LinkId> agg_up, agg_down;  // by rack
  for (NodeId a = 0; a < t.num_nodes(); ++a)
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      if (a == b) continue;
      const Path p = t.path(a, b);
      EXPECT_EQ(t.site_of_link(p.front()), t.site_of(a));
      EXPECT_EQ(t.site_of_link(p.back()), t.site_of(b));
      EXPECT_EQ(t.link(p.front()).latency, cfg.nic_latency);
      EXPECT_EQ(t.link(p.back()).latency, cfg.nic_latency);
      if (t.site_of(a) == t.site_of(b)) {
        EXPECT_EQ(p.size(), 2u) << a << "->" << b;
        continue;
      }
      ASSERT_EQ(p.size(), 4u) << a << "->" << b;
      // The sender rack's aggregation uplink, then the receiver rack's
      // downlink: one uplink per source rack, one downlink per destination.
      EXPECT_EQ(t.site_of_link(p[1]), t.site_of(a));
      EXPECT_EQ(t.site_of_link(p[2]), t.site_of(b));
      EXPECT_EQ(t.link(p[1]).latency, cfg.uplink_latency);
      EXPECT_EQ(t.link(p[2]).latency, cfg.uplink_latency);
      EXPECT_EQ(agg_up.try_emplace(t.site_of(a), p[1]).first->second, p[1]);
      EXPECT_EQ(agg_down.try_emplace(t.site_of(b), p[2]).first->second, p[2]);
    }
  ASSERT_EQ(agg_up.size(), 3u);
  ASSERT_EQ(agg_down.size(), 3u);
  for (const auto& [rack, up] : agg_up)
    for (const auto& [other, down] : agg_down) EXPECT_NE(up, down);
}

TEST(Topology, EveryDcPairRoutesThroughTheSourceWanLink) {
  WanConfig cfg;
  cfg.servers_per_dc = {2, 2, 2};
  cfg.clients_per_dc = {1, 1, 1};
  cfg.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(cfg);
  const Topology& t = c.topo;
  ASSERT_EQ(t.num_sites(), 3u);
  std::map<std::pair<int, int>, LinkId> wan;  // by (source, destination)
  for (NodeId a = 0; a < t.num_nodes(); ++a)
    for (NodeId b = 0; b < t.num_nodes(); ++b) {
      if (a == b) continue;
      const Path p = t.path(a, b);
      EXPECT_EQ(t.site_of_link(p.front()), t.site_of(a));
      EXPECT_EQ(t.site_of_link(p.back()), t.site_of(b));
      if (t.site_of(a) == t.site_of(b)) {
        EXPECT_EQ(p.size(), 2u) << a << "->" << b;
        continue;
      }
      ASSERT_EQ(p.size(), 3u) << a << "->" << b;
      EXPECT_EQ(t.site_of_link(p[1]), t.site_of(a));  // the source DC's
      EXPECT_GT(t.link(p[1]).latency, 10 * kMillisecond);
      const std::pair<int, int> dcs{t.site_of(a), t.site_of(b)};
      EXPECT_EQ(wan.try_emplace(dcs, p[1]).first->second, p[1]);
    }
  // One distinct WAN link per ordered DC pair.
  ASSERT_EQ(wan.size(), 6u);
  std::set<LinkId> distinct;
  for (const auto& [dcs, l] : wan) distinct.insert(l);
  EXPECT_EQ(distinct.size(), 6u);
}

TEST(Topology, BaseLatencyAddsSerialization) {
  RackConfig cfg;
  cfg.nic_latency = 1'000;
  cfg.nic_gbps = 8.0;  // 1 byte/ns
  Cluster c = build_multi_rack(cfg);
  // Two links of 1000 ns propagation each plus 100 ns serialization each.
  EXPECT_EQ(c.topo.base_latency(c.servers[0], c.servers[1], 100), 2'200);
}

TEST(Topology, Table1MatrixIsMirroredAndSized) {
  const auto& m = table1_rtt_ms();
  ASSERT_EQ(m.size(), 7u);
  for (size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(m[i].size(), 7u);
    for (size_t j = 0; j < m.size(); ++j) EXPECT_DOUBLE_EQ(m[i][j], m[j][i]);
  }
  // Spot checks against the paper's table.
  EXPECT_DOUBLE_EQ(m[1][0], 133);  // CA-IR
  EXPECT_DOUBLE_EQ(m[6][5], 322);  // FF-SY
  EXPECT_DOUBLE_EQ(m[3][3], 0.13); // TK intra
}

TEST(Topology, MultiDcRttMatchesMatrix) {
  WanConfig cfg;
  cfg.servers_per_dc = {3, 3, 3};
  cfg.clients_per_dc = {1, 1, 1};
  cfg.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(cfg);
  ASSERT_EQ(c.servers.size(), 9u);

  NodeId ir = c.servers[0], ca = c.servers[3];
  const Time one_way = c.topo.base_latency(ir, ca, 1);
  const Time rtt = one_way + c.topo.base_latency(ca, ir, 1);
  // 133 ms +- serialization slack.
  EXPECT_NEAR(static_cast<double>(rtt), 133.0 * kMillisecond,
              0.01 * kMillisecond);
}

TEST(Topology, MultiDcIntraDcRttMatchesDiagonal) {
  WanConfig cfg;
  cfg.servers_per_dc = {3, 3};
  cfg.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(cfg);
  NodeId a = c.servers[0], b = c.servers[1];
  const Time rtt =
      c.topo.base_latency(a, b, 1) + c.topo.base_latency(b, a, 1);
  EXPECT_NEAR(static_cast<double>(rtt), 0.20 * kMillisecond,
              0.01 * kMillisecond);
}

TEST(Topology, MultiDcRejectsShortMatrix) {
  WanConfig cfg;
  cfg.servers_per_dc = {3, 3, 3};
  cfg.rtt_ms = {{0.2}};
  EXPECT_THROW(build_multi_dc(cfg), std::invalid_argument);
}

TEST(Topology, DcAssignment) {
  WanConfig cfg;
  cfg.servers_per_dc = {2, 2};
  cfg.clients_per_dc = {1, 1};
  cfg.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(cfg);
  EXPECT_EQ(c.topo.site_of(c.servers[0]), 0);
  EXPECT_EQ(c.topo.site_of(c.servers[3]), 1);
  EXPECT_EQ(c.topo.site_of(c.clients[0]), 0);
  EXPECT_EQ(c.topo.site_of(c.clients[1]), 1);
}

// --------------------------------------------------------------------------
// Shard maps + PDES lookahead: make_shard_map partitions sites, and
// min_cut_matrix is the conservative lookahead between shard pairs.
// --------------------------------------------------------------------------

/// The reference both scan one route per site pair against: every one of
/// the n(n-1) routes, hop by hop. Returns the lookahead matrix for `map`,
/// or nothing when a route breaks make_shard_map's checks (an endpoint in
/// a foreign shard, or a zero-latency crossing).
std::optional<std::vector<Time>> all_routes_min_cut(const Topology& t,
                                                    const ShardMap& map) {
  const std::size_t k = map.num_shards;
  std::vector<Time> m(k * k, kTimeInf);
  for (NodeId s = 0; s < t.num_nodes(); ++s)
    for (NodeId d = 0; d < t.num_nodes(); ++d) {
      if (s == d) continue;
      const Path p = t.path(s, d);
      if (map.link_shard[p.front()] != map.node_shard[s] ||
          map.link_shard[p.back()] != map.node_shard[d])
        return std::nullopt;
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        const std::uint32_t a = map.link_shard[p[h]];
        const std::uint32_t b = map.link_shard[p[h + 1]];
        if (a == b) continue;
        const Time latency = t.link(p[h]).latency;
        if (latency <= 0) return std::nullopt;
        m[a * k + b] = std::min(m[a * k + b], latency);
      }
    }
  return m;
}

/// make_shard_map(t, requested) and min_cut_matrix over it agree with the
/// all-routes reference: both reject, or both give the same lookahead.
void expect_matches_all_routes(const Topology& t, unsigned requested) {
  ShardMap folded;  // sites round-robin onto shards, by hand
  folded.num_shards = std::max(
      1u, std::min(requested, static_cast<unsigned>(t.num_sites())));
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    folded.node_shard.push_back(static_cast<std::uint32_t>(t.site_of(n)) %
                                folded.num_shards);
  for (LinkId l = 0; l < t.num_links(); ++l)
    folded.link_shard.push_back(
        static_cast<std::uint32_t>(t.site_of_link(l)) % folded.num_shards);
  const std::optional<std::vector<Time>> want = all_routes_min_cut(t, folded);
  if (!want) {
    EXPECT_THROW(make_shard_map(t, requested), std::invalid_argument);
    return;
  }
  const ShardMap m = make_shard_map(t, requested);
  EXPECT_EQ(m.num_shards, folded.num_shards);
  EXPECT_EQ(m.node_shard, folded.node_shard);
  EXPECT_EQ(m.link_shard, folded.link_shard);
  EXPECT_EQ(min_cut_matrix(t, m), *want);
}

TEST(ShardMap, SitePairScanMatchesTheAllRoutesWalk) {
  // The 3-rack LAN, unfolded and folded onto 2 shards.
  const Cluster lan = build_multi_rack({});
  expect_matches_all_routes(lan.topo, 3);
  expect_matches_all_routes(lan.topo, 2);
  // The Table 1 WAN, one shard per site, and its 7 sites on 2 shards.
  WanConfig wan;
  wan.servers_per_dc.assign(7, 3);
  wan.clients_per_dc.assign(7, 5);
  wan.rtt_ms = table1_rtt_ms();
  const Cluster geo = build_multi_dc(wan);
  expect_matches_all_routes(geo.topo, 7);
  expect_matches_all_routes(geo.topo, 2);
  // bench_pdes' stress fabric: 20 racks of 40 servers and 10 clients.
  RackConfig fabric;
  fabric.racks = 20;
  fabric.servers_per_rack = 40;
  fabric.clients_per_rack = 10;
  const Cluster big = build_multi_rack(fabric);
  ASSERT_EQ(big.topo.num_nodes(), 1000u);
  expect_matches_all_routes(big.topo, 4);
  expect_matches_all_routes(big.topo, 20);
}

/// min_cut_matrix's entry for shards a -> b.
Time min_cut(const Topology& t, const ShardMap& m, std::uint32_t a,
             std::uint32_t b) {
  return min_cut_matrix(t, m)[a * m.num_shards + b];
}

TEST(ShardMap, MultiRackClampsToSiteCount) {
  Cluster c = build_multi_rack({});  // 3 racks
  ShardMap m = make_shard_map(c.topo, 8);
  EXPECT_EQ(m.num_shards, 3u);
  for (NodeId n = 0; n < c.topo.num_nodes(); ++n)
    EXPECT_EQ(m.node_shard[n], static_cast<std::uint32_t>(c.topo.site_of(n)));
}

TEST(ShardMap, MultiRackFoldsSitesRoundRobin) {
  Cluster c = build_multi_rack({});  // 3 racks
  ShardMap m = make_shard_map(c.topo, 2);
  EXPECT_EQ(m.num_shards, 2u);
  for (NodeId n = 0; n < c.topo.num_nodes(); ++n)
    EXPECT_EQ(m.node_shard[n],
              static_cast<std::uint32_t>(c.topo.site_of(n)) % 2u);
  for (LinkId l = 0; l < c.topo.num_links(); ++l)
    EXPECT_EQ(m.link_shard[l],
              static_cast<std::uint32_t>(c.topo.site_of_link(l)) % 2u);
}

TEST(ShardMap, ZeroRequestedShardsStillYieldsOne) {
  Cluster c = build_multi_rack({});
  EXPECT_EQ(make_shard_map(c.topo, 0).num_shards, 1u);
}

TEST(ShardMap, MultiRackMinCutIsUplinkLatency) {
  // The only shard-crossing hand-off in the rack fabric is the sender
  // rack's aggregation uplink: its arrival event schedules the downlink
  // hop in the destination rack's shard. Its latency is the lookahead.
  RackConfig cfg;
  cfg.uplink_latency = 2'000;
  Cluster c = build_multi_rack(cfg);
  ShardMap m = make_shard_map(c.topo, 3);
  for (std::uint32_t a = 0; a < 3; ++a)
    for (std::uint32_t b = 0; b < 3; ++b) {
      if (a == b)
        EXPECT_EQ(min_cut(c.topo, m, a, b), kTimeInf);  // no crossing
      else
        EXPECT_EQ(min_cut(c.topo, m, a, b), cfg.uplink_latency);
    }
}

TEST(ShardMap, MultiDcMinCutIsWanOneWay) {
  // WAN links are owned by the SOURCE datacenter, so the dc-a -> dc-b
  // crossing happens at the WAN link itself: one-way latency = rtt/2 minus
  // the two DC-edge hops (rtt_ii/4 each).
  WanConfig cfg;
  cfg.servers_per_dc = {3, 3, 3};
  cfg.rtt_ms = table1_rtt_ms();
  Cluster c = build_multi_dc(cfg);
  ShardMap m = make_shard_map(c.topo, 3);

  auto edge = [&](int dc) {
    return static_cast<Time>(cfg.rtt_ms[static_cast<std::size_t>(dc)]
                                       [static_cast<std::size_t>(dc)] /
                             4.0 * kMillisecond);
  };
  auto wan_one_way = [&](int i, int j) {
    return static_cast<Time>(cfg.rtt_ms[static_cast<std::size_t>(i)]
                                       [static_cast<std::size_t>(j)] /
                             2.0 * kMillisecond) -
           edge(i) - edge(j);
  };
  // IR -> CA: 133/2 ms minus the 0.05 ms edges on both sides.
  EXPECT_EQ(min_cut(c.topo, m, 0, 1), wan_one_way(0, 1));
  EXPECT_EQ(min_cut(c.topo, m, 1, 0), wan_one_way(1, 0));
  EXPECT_EQ(min_cut(c.topo, m, 1, 2), wan_one_way(1, 2));
  // WAN lookahead dwarfs the rack fabric's: tens of milliseconds.
  EXPECT_GT(min_cut(c.topo, m, 0, 1), 60 * kMillisecond);
}

TEST(ShardMap, FoldedMapKeepsPositiveLookaheadBetweenDistinctShards) {
  // Folding 3 racks onto 2 shards puts racks 0 and 2 in shard 0; their
  // mutual traffic is intra-shard (no crossing), while every inter-shard
  // pair still crosses an uplink.
  Cluster c = build_multi_rack({});
  ShardMap m = make_shard_map(c.topo, 2);
  const std::vector<Time> mat = min_cut_matrix(c.topo, m);
  EXPECT_EQ(mat[0 * 2 + 0], kTimeInf);
  EXPECT_EQ(mat[1 * 2 + 1], kTimeInf);
  EXPECT_GT(mat[0 * 2 + 1], 0);
  EXPECT_LT(mat[0 * 2 + 1], kTimeInf);
  EXPECT_GT(mat[1 * 2 + 0], 0);
  EXPECT_LT(mat[1 * 2 + 0], kTimeInf);
}

TEST(ShardMap, ZeroLatencyCrossingIsRejected) {
  // A hand-off along a zero-latency link would mean zero lookahead — the
  // conservative kernel could deadlock-or-block forever, so make_shard_map
  // must refuse the partition outright.
  Topology t;
  const LinkId l0 = t.add_link(/*latency=*/0, gbps(10.0), /*site=*/0);
  const LinkId a_down = t.add_link(1'000, gbps(10.0), 0);
  const LinkId b_up = t.add_link(1'000, gbps(10.0), 1);
  const LinkId l1 = t.add_link(/*latency=*/1'000, gbps(10.0), /*site=*/1);
  t.add_node(/*site=*/0, l0, a_down);
  t.add_node(/*site=*/1, b_up, l1);  // path a -> b is {l0, l1}
  EXPECT_THROW(make_shard_map(t, 2), std::invalid_argument);
  expect_matches_all_routes(t, 2);
  // The same wiring with a positive crossing latency is accepted.
  Topology ok;
  const LinkId k0 = ok.add_link(500, gbps(10.0), 0);
  const LinkId oa_down = ok.add_link(1'000, gbps(10.0), 0);
  const LinkId ob_up = ok.add_link(1'000, gbps(10.0), 1);
  const LinkId k1 = ok.add_link(1'000, gbps(10.0), 1);
  ok.add_node(0, k0, oa_down);
  ok.add_node(1, ob_up, k1);
  ShardMap m = make_shard_map(ok, 2);
  EXPECT_EQ(min_cut(ok, m, 0, 1), 500);
  expect_matches_all_routes(ok, 2);
}

TEST(ShardMap, ForeignPathEndpointIsRejected) {
  // A path whose first hop is owned by a different shard than its source
  // node would make the send event emit into a queue the sender's worker
  // does not own.
  Topology t;
  const LinkId wrong = t.add_link(1'000, gbps(10.0), /*site=*/1);
  const LinkId a_down = t.add_link(1'000, gbps(10.0), 0);
  const LinkId b_up = t.add_link(1'000, gbps(10.0), 1);
  const LinkId b_down = t.add_link(1'000, gbps(10.0), 1);
  t.add_node(0, wrong, a_down);
  t.add_node(1, b_up, b_down);
  EXPECT_THROW(make_shard_map(t, 2), std::invalid_argument);
  expect_matches_all_routes(t, 2);
}

TEST(ShardMap, SiteSplitAcrossShardsIsRejected) {
  // Two nodes of one rack in different shards, each with its NIC links in
  // its own shard: the route between them crosses, which one route per
  // site pair cannot see, so the lookahead scan refuses the map.
  Cluster c = build_multi_rack({});
  ShardMap m = make_shard_map(c.topo, 3);
  const NodeId moved = c.servers[0];
  m.node_shard[moved] = 1;
  m.link_shard[c.topo.uplink(moved)] = 1;
  m.link_shard[c.topo.downlink(moved)] = 1;
  EXPECT_THROW(min_cut_matrix(c.topo, m), std::invalid_argument);
}

}  // namespace
}  // namespace canopus::simnet
