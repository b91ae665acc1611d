// Test scaffolding for whole-cluster Canopus runs.
#pragma once

#include <memory>
#include <vector>

#include "canopus/node.h"
#include "simnet/network.h"
#include "simnet/topology.h"

namespace canopus::testutil {

/// A ready-to-run Canopus deployment over a multi-rack (single-DC) or
/// multi-DC topology: one super-leaf per rack/DC.
class CanopusCluster {
 public:
  /// Single-datacenter: `racks` super-leaves of `per_rack` nodes each.
  CanopusCluster(int racks, int per_rack, core::Config cfg = {},
                 std::uint64_t seed = 42, int arity = 0)
      : sim_(seed) {
    simnet::RackConfig rc;
    rc.racks = racks;
    rc.servers_per_rack = per_rack;
    rc.clients_per_rack = 0;
    cluster_ = simnet::build_multi_rack(rc);
    init(cfg, arity);
  }

  /// Multi-datacenter with the paper's Table 1 latencies: one super-leaf of
  /// `per_dc` nodes per datacenter.
  static CanopusCluster multi_dc(int dcs, int per_dc, core::Config cfg = {},
                                 std::uint64_t seed = 42) {
    simnet::WanConfig wc;
    wc.servers_per_dc.assign(static_cast<std::size_t>(dcs), per_dc);
    wc.rtt_ms = simnet::table1_rtt_ms();
    return CanopusCluster(simnet::build_multi_dc(wc), cfg, seed);
  }

  CanopusCluster(simnet::Cluster cluster, core::Config cfg,
                 std::uint64_t seed)
      : sim_(seed), cluster_(std::move(cluster)) {
    init(cfg, 0);
  }

  simnet::Simulator& sim() { return sim_; }
  simnet::Network& net() { return *net_; }
  core::CanopusNode& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }
  NodeId server(std::size_t i) const { return cluster_.servers[i]; }
  const std::shared_ptr<const lot::Lot>& lot() const { return lot_; }

  /// Submits a write to node i at simulated time t.
  void write_at(Time t, std::size_t i, std::uint64_t key, std::uint64_t val,
                ClientId client = kInvalidNode, std::uint64_t seq = 0) {
    sim_.at(t, [this, i, key, val, client, seq] {
      kv::Request r;
      r.id = {client, seq};
      r.is_write = true;
      r.key = key;
      r.value = val;
      r.arrival = sim_.now();
      nodes_[i]->submit(r);
    });
  }

  /// Submits a read to node i at simulated time t.
  void read_at(Time t, std::size_t i, std::uint64_t key,
               ClientId client = kInvalidNode, std::uint64_t seq = 0) {
    sim_.at(t, [this, i, key, client, seq] {
      kv::Request r;
      r.id = {client, seq};
      r.is_write = false;
      r.key = key;
      r.arrival = sim_.now();
      nodes_[i]->submit(r);
    });
  }

  /// Crash node i (both network and protocol sides).
  void crash(std::size_t i) {
    net_->crash(server(i));
    nodes_[i]->crash();
  }

  /// Recover node i: it rejoins through the sponsored snapshot install.
  void recover(std::size_t i) {
    net_->recover(server(i));
    nodes_[i]->recover();
  }

  /// True when all live (non-crashed) nodes share the same commit digest.
  bool all_agree() const {
    const kv::CommitDigest* first = nullptr;
    for (const auto& n : nodes_) {
      if (!net_->is_up(n->node_id())) continue;
      if (first == nullptr) {
        first = &n->digest();
      } else if (!(*first == n->digest())) {
        return false;
      }
    }
    return true;
  }

 private:
  void init(const core::Config& cfg, int arity) {
    net_ = std::make_unique<simnet::Network>(sim_, cluster_.topo);

    lot::LotConfig lc;
    lc.arity = arity;
    int current_group = -1;
    for (NodeId s : cluster_.servers) {
      const int g = cluster_.topo.dc_of(s) * 1'000'000 +
                    cluster_.topo.rack_of(s);
      if (g != current_group) {
        lc.super_leaves.emplace_back();
        current_group = g;
      }
      lc.super_leaves.back().push_back(s);
    }
    lot_ = std::make_shared<const lot::Lot>(lot::Lot::build(lc));

    for (NodeId s : cluster_.servers) {
      nodes_.push_back(std::make_unique<core::CanopusNode>(lot_, cfg));
      net_->attach(s, *nodes_.back());
    }
  }

  simnet::Simulator sim_;
  simnet::Cluster cluster_;
  std::unique_ptr<simnet::Network> net_;
  std::shared_ptr<const lot::Lot> lot_;
  std::vector<std::unique_ptr<core::CanopusNode>> nodes_;
};

}  // namespace canopus::testutil
