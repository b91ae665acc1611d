// Single-rack fixture for the protocol tests of one kv::ReplicaNode type.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/types.h"
#include "simnet/network.h"
#include "testutil/harness.h"

namespace canopus::testutil {

/// `n` nodes of one protocol, each built from the server list and a
/// `Config`, on a one-rack cluster driven by Simulator(42).
template <class Node, class Config>
class ReplicaClusterTest : public ::testing::Test {
 protected:
  void build(int n, Config cfg = {}) {
    sim_ = std::make_unique<simnet::Simulator>(42);
    cluster_ = small_cluster(n);
    net_ = std::make_unique<simnet::Network>(*sim_, cluster_.topo);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<Node>(cluster_.servers, cfg));
      net_->attach(cluster_.servers[static_cast<size_t>(i)], *nodes_.back());
    }
  }

  void write_at(Time t, int node, std::uint64_t key, std::uint64_t val) {
    sim_->at(t, [this, node, key, val] {
      kv::Request r;
      r.is_write = true;
      r.key = key;
      r.value = val;
      r.arrival = sim_->now();
      nodes_[static_cast<size_t>(node)]->submit(r);
    });
  }

  void read_at(Time t, int node, std::uint64_t key) {
    sim_->at(t, [this, node, key] {
      kv::Request r;
      r.is_write = false;
      r.key = key;
      r.arrival = sim_->now();
      nodes_[static_cast<size_t>(node)]->submit(r);
    });
  }

  /// Crash-stops a node: its network and its protocol instance.
  void crash(int node) {
    net_->crash(cluster_.servers[static_cast<size_t>(node)]);
    nodes_[static_cast<size_t>(node)]->crash();
  }

  void recover(int node) {
    net_->recover(cluster_.servers[static_cast<size_t>(node)]);
    nodes_[static_cast<size_t>(node)]->recover();
  }

  std::unique_ptr<simnet::Simulator> sim_;
  simnet::Cluster cluster_;
  std::unique_ptr<simnet::Network> net_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace canopus::testutil
