// Shared test scaffolding: small clusters and protocol-hosting processes.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "raft/raft.h"
#include "rbcast/rbcast.h"
#include "simnet/network.h"
#include "simnet/payload_testing.h"
#include "simnet/topology.h"

namespace canopus::testutil {

/// Checked accessor for string test payloads: a wrong-typed or empty
/// payload fails the expectation instead of dereferencing null.
inline std::string text(const simnet::Payload& p) {
  const std::string* s = p.as<std::string>();
  EXPECT_NE(s, nullptr) << "payload does not carry a std::string";
  return s ? *s : std::string("<non-string payload>");
}

/// A single-rack cluster of `n` server machines (no clients).
inline simnet::Cluster small_cluster(int n) {
  simnet::RackConfig cfg;
  cfg.racks = 1;
  cfg.servers_per_rack = n;
  cfg.clients_per_rack = 0;
  return simnet::build_multi_rack(cfg);
}

/// Process hosting one or more RaftNodes, routing wire messages by group.
class RaftHost : public simnet::Process {
 public:
  /// Creates a group on this host. Returns the node (owned by the host).
  raft::RaftNode& make_group(raft::GroupId group, std::vector<NodeId> members,
                             simnet::Simulator& sim, raft::Options opt = {}) {
    raft::RaftNode::Callbacks cb;
    cb.send = [this](NodeId dst, simnet::Payload p, std::size_t bytes) {
      send(dst, bytes, std::move(p));
    };
    cb.on_commit = [this, group](raft::LogIndex idx, const raft::LogEntry& e) {
      commits.push_back({group, idx, e});
      if (on_commit) on_commit(group, idx, e);
    };
    cb.on_leader_change = [this, group](NodeId leader, raft::Term term) {
      leader_changes.push_back({group, leader, term});
    };
    auto node = std::make_unique<raft::RaftNode>(group, node_id(),
                                                 std::move(members), sim,
                                                 std::move(cb), opt);
    raft::RaftNode& ref = *node;
    groups[group] = std::move(node);
    return ref;
  }

  void on_message(const simnet::Message& m) override {
    if (const auto* w = m.as<raft::WireMsg>()) {
      auto it = groups.find(w->group);
      if (it != groups.end()) it->second->on_message(m.src(), *w);
    }
  }

  struct Commit {
    raft::GroupId group;
    raft::LogIndex index;
    raft::LogEntry entry;
  };
  struct LeaderChange {
    raft::GroupId group;
    NodeId leader;
    raft::Term term;
  };

  std::unordered_map<raft::GroupId, std::unique_ptr<raft::RaftNode>> groups;
  std::vector<Commit> commits;
  std::vector<LeaderChange> leader_changes;
  std::function<void(raft::GroupId, raft::LogIndex, const raft::LogEntry&)>
      on_commit;
};

/// Process hosting a super-leaf ReliableBroadcast endpoint.
class RbcastHost : public simnet::Process {
 public:
  void init(std::vector<NodeId> members, simnet::Simulator& sim,
            raft::Options opt = {}) {
    rbcast::ReliableBroadcast::Callbacks cb;
    cb.send = [this](NodeId dst, simnet::Payload p, std::size_t bytes) {
      send(dst, bytes, std::move(p));
    };
    cb.deliver = [this](NodeId origin, const simnet::Payload& payload) {
      delivered.push_back({origin, payload});
    };
    cb.on_peer_failed = [this](NodeId failed) {
      failures.push_back(failed);
      if (dissolve_on_failure) rb->remove_member(failed);
    };
    rb = std::make_unique<rbcast::ReliableBroadcast>(
        node_id(), std::move(members), sim, std::move(cb), opt);
  }

  void on_start() override { rb->start(); }

  void on_message(const simnet::Message& m) override {
    if (const auto* w = m.as<raft::WireMsg>()) rb->on_message(m.src(), *w);
  }

  struct Delivery {
    NodeId origin;
    simnet::Payload payload;
  };

  std::unique_ptr<rbcast::ReliableBroadcast> rb;
  std::vector<Delivery> delivered;
  std::vector<NodeId> failures;
  /// Dissolve a failed peer's group at the upcall, as Canopus does.
  bool dissolve_on_failure = false;
};

}  // namespace canopus::testutil
