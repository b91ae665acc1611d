// ConsensusService: one driver-facing facade over a deployed consensus
// system.
//
// Every system in the repository (Canopus, Raft, Zab/ZooKeeper, EPaxos)
// deploys as N server processes attached to a simnet::Network. This layer
// gives the workload drivers — the trial pipeline (workload/trial.h), the
// benches, the examples — ONE interface to submit requests, inject node
// faults, and audit safety, so a scenario is written once and runs
// identically against all four systems instead of once per `switch` arm
// (the pre-refactor deployments.h shape).
//
// Semantics the interface pins down:
//  * crash(i)  — crash-stop: the network drops all traffic to/from the
//    node AND the protocol instance silences its timers. Volatile state
//    (un-proposed batches, unsent replies) is lost; committed state models
//    a durable log.
//  * recover(i) — restart with durable state; the protocol's own repair
//    path (Raft log backoff or InstallSnapshot, Zab catch-up or snapshot
//    sync, EPaxos instance fetch or snapshot transfer, Canopus rejoin by
//    sponsor state transfer) brings the node back to the common prefix.
//  * commit_fingerprint(i) — the agreement check: equal fingerprints (and
//    counts) on two comparable nodes mean they committed the same writes.
//    Ordered systems hash the committed *sequence* (kv::CommitDigest);
//    EPaxos hashes the committed *set* (kv::SetDigest) because
//    non-interfering commands legitimately execute in different orders on
//    different replicas.
//  * comparable(i) — whether node i participates in the agreement check:
//    it is up, and either it never crashed or the system can repair a
//    recovered node.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "canopus/node.h"
#include "epaxos/epaxos.h"
#include "kv/replica.h"
#include "kv/types.h"
#include "raft/raft_kv.h"
#include "simnet/network.h"
#include "zab/zab.h"

namespace canopus::workload {

class ConsensusService {
 public:
  virtual ~ConsensusService() = default;

  ConsensusService(const ConsensusService&) = delete;
  ConsensusService& operator=(const ConsensusService&) = delete;

  virtual const char* name() const = 0;

  std::size_t num_servers() const { return servers_.size(); }
  NodeId server_node(std::size_t i) const { return servers_[i]; }

  /// Local submission path (examples/tests); client traffic normally
  /// arrives as kv::ClientBatch through the network instead.
  virtual void submit(std::size_t i, kv::Request r) = 0;

  /// Crash-stop node i (network + protocol instance). The protocol-side
  /// crash runs via Host::post — inline on the simulated backend, inside
  /// the node thread's execution context on the threaded one.
  void crash(std::size_t i) {
    host_.crash(servers_[i]);
    up_[i] = false;
    ever_crashed_[i] = true;
    host_.post(servers_[i], [this, i] { node_crash(i); });
  }

  /// Restarts node i with its durable state; false if this system cannot
  /// re-admit a crashed node (the node stays dark). Fault schedules armed
  /// through arm_via_service (workload/fault_scenario.h) fail fast by
  /// default instead of silently hitting this false return — see
  /// RecoverArming.
  bool recover(std::size_t i) {
    if (!supports_recover()) return false;
    host_.recover(servers_[i]);
    up_[i] = true;
    host_.post(servers_[i], [this, i] { node_recover(i); });
    return true;
  }

  bool up(std::size_t i) const { return up_[i]; }
  bool ever_crashed(std::size_t i) const { return ever_crashed_[i]; }
  virtual bool supports_recover() const { return true; }

  /// Whether node i's fingerprint participates in the agreement check.
  /// Concrete services may narrow this further (a Canopus node mid-rejoin
  /// is not yet a member and its digest chain restarts at the install).
  virtual bool comparable(std::size_t i) const {
    return up_[i] && (supports_recover() || !ever_crashed_[i]);
  }

  // --- safety/progress observers ---------------------------------------
  virtual std::uint64_t committed_writes(std::size_t i) const = 0;
  virtual std::uint64_t commit_fingerprint(std::size_t i) const = 0;
  virtual std::uint64_t served_reads(std::size_t i) const = 0;
  /// Monotone per-node progress counter in protocol units (cycles, zxids,
  /// log indices, executed instances). Scenario checks use "did the max
  /// over live nodes advance", never absolute values across systems.
  virtual std::uint64_t progress(std::size_t i) const = 0;
  virtual const kv::Store& store(std::size_t i) const = 0;

  // --- compaction/state-transfer observers ------------------------------
  /// Snapshots node i installed (received from a donor) since start.
  virtual std::uint64_t snapshots_installed(std::size_t /*i*/) const {
    return 0;
  }
  /// Log records node i currently retains (the memory footprint the
  /// compaction bound caps): Raft log entries, Zab history batches, EPaxos
  /// instance-ring residents, Canopus cycle states.
  virtual std::uint64_t log_entries_retained(std::size_t /*i*/) const {
    return 0;
  }

  /// Fired at commit/execute time: (server index, protocol unit, batch).
  /// The batch is the protocol's committed request batch, in its local
  /// apply order.
  std::function<void(std::size_t, std::uint64_t,
                     const std::vector<kv::Request>&)>
      on_commit;

  /// Fired when a node installs a state snapshot (server index, snapshot).
  /// The audit plane uses this to reconcile the node's history: the
  /// installed prefix is adopted wholesale, not replayed write by write.
  std::function<void(std::size_t, const kv::Snapshot&)> on_snapshot_install;

 protected:
  ConsensusService(runtime::Host& host, std::vector<NodeId> servers)
      : host_(host),
        servers_(std::move(servers)),
        up_(servers_.size(), true),
        ever_crashed_(servers_.size(), false) {}

  virtual void node_crash(std::size_t i) = 0;
  virtual void node_recover(std::size_t /*i*/) {}

  runtime::Host& host_;
  std::vector<NodeId> servers_;
  std::vector<bool> up_;
  std::vector<bool> ever_crashed_;
};

/// Shared wiring of the one-Process-per-server services: owns the node
/// instances, attaches them, and forwards everything the four node types
/// expose with the same shape — the kv::ReplicaNode surface plus
/// submit / crash / recover / log_entries_retained. A concrete service
/// supplies the node factory plus the system-specific pieces: name,
/// progress units and fingerprint semantics.
template <std::derived_from<kv::ReplicaNode> Node>
class NodeService : public ConsensusService {
 public:
  /// Routed through Host::post so the protocol instance is only ever
  /// touched from its own execution context: inline on the simulated
  /// backend (bit-identical to the direct call), enqueued onto the node's
  /// injection mailbox on the threaded one. The closure must stay within
  /// InlineFn's inline budget — no allocation per submission.
  void submit(std::size_t i, kv::Request r) override {
    auto fn = [n = nodes_[i].get(), r]() mutable { n->submit(std::move(r)); };
    static_assert(simnet::InlineFn::fits_inline<decltype(fn)>);
    host_.post(servers_[i], std::move(fn));
  }
  std::uint64_t committed_writes(std::size_t i) const override {
    return nodes_[i]->digest().count();
  }
  std::uint64_t commit_fingerprint(std::size_t i) const override {
    return nodes_[i]->digest().value();
  }
  std::uint64_t served_reads(std::size_t i) const override {
    return nodes_[i]->served_reads();
  }
  const kv::Store& store(std::size_t i) const override {
    return nodes_[i]->store();
  }
  std::uint64_t snapshots_installed(std::size_t i) const override {
    return nodes_[i]->snapshots_installed();
  }
  std::uint64_t log_entries_retained(std::size_t i) const override {
    return nodes_[i]->log_entries_retained();
  }

  Node& node(std::size_t i) { return *nodes_[i]; }

 protected:
  template <class MakeNode>  // MakeNode: size_t -> unique_ptr<Node>
  NodeService(runtime::Host& host, std::vector<NodeId> servers,
              const MakeNode& make)
      : ConsensusService(host, std::move(servers)) {
    nodes_.reserve(servers_.size());
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      nodes_.push_back(make(i));
      Node& n = *nodes_.back();
      host_.attach(servers_[i], n);
      // Node i's hooks feed the service-level ones, tagged with its index.
      n.on_commit = [this, i](std::uint64_t unit,
                              const std::vector<kv::Request>& batch) {
        if (on_commit) on_commit(i, unit, batch);
      };
      n.on_snapshot_install = [this, i](const kv::Snapshot& s) {
        if (on_snapshot_install) on_snapshot_install(i, s);
      };
    }
  }

  void node_crash(std::size_t i) override { nodes_[i]->crash(); }
  void node_recover(std::size_t i) override { nodes_[i]->recover(); }

  std::vector<std::unique_ptr<Node>> nodes_;
};

// --------------------------------------------------------------------------
// Canopus
// --------------------------------------------------------------------------

class CanopusService final : public NodeService<core::CanopusNode> {
 public:
  CanopusService(runtime::Host& net, std::vector<NodeId> servers,
                 const lot::LotConfig& lc, core::Config cfg)
      : CanopusService(net, std::move(servers),
                       std::make_shared<const lot::Lot>(lot::Lot::build(lc)),
                       std::move(cfg)) {}

  const char* name() const override { return "Canopus"; }

  /// A node between recover() and its snapshot install is not yet a member:
  /// its digest chain restarts at the install, so it only rejoins the
  /// agreement check once the transfer lands.
  bool comparable(std::size_t i) const override {
    return ConsensusService::comparable(i) && !nodes_[i]->joining();
  }

  std::uint64_t progress(std::size_t i) const override {
    return nodes_[i]->last_committed_cycle();
  }

  const lot::Lot& lot() const { return *lot_; }

 private:
  CanopusService(runtime::Host& net, std::vector<NodeId> servers,
                 std::shared_ptr<const lot::Lot> lot, core::Config cfg)
      : NodeService(net, std::move(servers),
                    [&](std::size_t) {
                      return std::make_unique<core::CanopusNode>(lot, cfg);
                    }),
        lot_(std::move(lot)) {}

  std::shared_ptr<const lot::Lot> lot_;
};

// --------------------------------------------------------------------------
// Raft (standalone deployment)
// --------------------------------------------------------------------------

class RaftService final : public NodeService<raft::RaftKvNode> {
 public:
  RaftService(runtime::Host& net, std::vector<NodeId> servers,
              raft::KvConfig cfg)
      : NodeService(net, std::move(servers), [&](std::size_t) {
          return std::make_unique<raft::RaftKvNode>(servers_, cfg);
        }) {}

  const char* name() const override { return "Raft"; }
  std::uint64_t progress(std::size_t i) const override {
    return nodes_[i]->commit_index();
  }
};

// --------------------------------------------------------------------------
// Zab / ZooKeeper
// --------------------------------------------------------------------------

class ZabService final : public NodeService<zab::ZabNode> {
 public:
  ZabService(runtime::Host& net, std::vector<NodeId> servers,
             zab::Config cfg)
      : NodeService(net, std::move(servers), [&](std::size_t) {
          return std::make_unique<zab::ZabNode>(servers_, cfg);
        }) {}

  const char* name() const override { return "ZooKeeper"; }
  std::uint64_t progress(std::size_t i) const override {
    return nodes_[i]->applied_upto();
  }
};

// --------------------------------------------------------------------------
// EPaxos
// --------------------------------------------------------------------------

class EPaxosService final : public NodeService<epaxos::EPaxosNode> {
 public:
  EPaxosService(runtime::Host& net, std::vector<NodeId> servers,
                epaxos::Config cfg)
      : NodeService(net, std::move(servers), [&](std::size_t) {
          return std::make_unique<epaxos::EPaxosNode>(servers_, cfg);
        }) {}

  const char* name() const override { return "EPaxos"; }

  /// Set digest, not sequence digest: see the class comment.
  std::uint64_t committed_writes(std::size_t i) const override {
    return nodes_[i]->set_digest().count();
  }
  std::uint64_t commit_fingerprint(std::size_t i) const override {
    return nodes_[i]->set_digest().value();
  }
  std::uint64_t progress(std::size_t i) const override {
    return nodes_[i]->executed_requests();
  }
};

}  // namespace canopus::workload
