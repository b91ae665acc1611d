// FaultScenario: a named fault script that runs identically against any
// workload::ConsensusService, plus the fault-plane pieces every faulted
// trial shares (workload/trial.h): the phase timing, the phase-splitting
// recorder, and the arming of a simnet::FaultSchedule through the services.
//
// A scenario is a simnet::FaultSchedule over *server indices* (0 ..
// groups*per_group-1, group-major, as laid out by build_cluster);
// make_schedule relabels the indices onto NodeIds, and arm_via_service
// routes crash/recover events through the owning service (so the protocol
// instance is silenced or restarted together with the network), while
// sever/heal act on the network alone.
//
// The standard library covers the liveness cases the paper discusses (§6)
// and the classics every consensus deployment meets:
//   single_node_crash      one non-leader server crashes, later recovers
//   leader_crash           server 0 (Zab/Raft leader) crashes, later recovers
//   superleaf_majority_loss a majority of group 0 crashes — Canopus stalls
//                          by design; quorum systems ride through
//   partition_asym         one-way partition group 0 -> rest, then heal
//   rolling_crashes        one server per group crashes and recovers in
//                          sequence
//
// Safety audit (the Agreement property under faults): at the end of the
// run, comparable nodes (see ConsensusService::comparable) with equal
// commit counts must report equal fingerprints (TrialReport's fleet
// check). A system may stall under a fault — Canopus is expected to on
// majority loss — but must never diverge.
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simnet/fault_schedule.h"
#include "workload/deployments.h"

namespace canopus::workload {

// --------------------------------------------------------------------------
// Scenario definitions
// --------------------------------------------------------------------------

/// Phase boundaries of a fault trial, in absolute simulation time:
/// before = [warmup, fault_at), during = [fault_at, heal_at),
/// after = [heal_at, end_at); clients stop at end_at and the run drains
/// until end_at + drain (repair traffic completes in the drain).
struct FaultTiming {
  Time warmup = 300 * kMillisecond;
  Time fault_at = 800 * kMillisecond;
  Time heal_at = 1'600 * kMillisecond;
  Time end_at = 2'400 * kMillisecond;
  Time drain = 600 * kMillisecond;
};

struct FaultScenario {
  std::string name;
  std::string description;
  /// The fault script, with server indices where the NodeIds go.
  simnet::FaultSchedule steps;
  /// The scenario removes a super-leaf majority: Canopus is *expected* to
  /// stall (and must not diverge); quorum systems are expected to proceed.
  bool majority_loss = false;
};

/// The standard scenario suite for a `groups x per_group` deployment.
/// Requires per_group >= 3 (rolling/single crashes must leave every
/// super-leaf a majority) and groups >= 2.
inline std::vector<FaultScenario> standard_scenarios(int groups,
                                                     int per_group,
                                                     const FaultTiming& ft) {
  assert(groups >= 2 && per_group >= 3);
  std::vector<FaultScenario> out;

  {
    FaultScenario s;
    s.name = "single_node_crash";
    s.description = "one non-leader server crashes, recovers later";
    const int victim = per_group;  // first server of group 1
    s.steps.crash_at(ft.fault_at, victim).recover_at(ft.heal_at, victim);
    out.push_back(std::move(s));
  }
  {
    FaultScenario s;
    s.name = "leader_crash";
    s.description = "server 0 (Zab/Raft leader) crashes, recovers later";
    s.steps.crash_at(ft.fault_at, 0).recover_at(ft.heal_at, 0);
    out.push_back(std::move(s));
  }
  {
    FaultScenario s;
    s.name = "superleaf_majority_loss";
    s.description = "a majority of group 0 crashes (Canopus stalls, Sec 6)";
    s.majority_loss = true;
    const int majority = per_group / 2 + 1;
    for (int v = 0; v < majority; ++v)
      s.steps.crash_at(ft.fault_at, v).recover_at(ft.heal_at, v);
    out.push_back(std::move(s));
  }
  {
    FaultScenario s;
    s.name = "partition_asym";
    s.description = "one-way partition: group 0 cannot reach other groups";
    for (int a = 0; a < per_group; ++a)
      for (int b = per_group; b < groups * per_group; ++b)
        s.steps.sever_at(ft.fault_at, a, b).heal_at(ft.heal_at, a, b);
    out.push_back(std::move(s));
  }
  {
    FaultScenario s;
    s.name = "rolling_crashes";
    s.description = "one server per group crashes and recovers in sequence";
    const int waves = groups < 3 ? groups : 3;
    const Time stagger = (ft.heal_at - ft.fault_at) / waves;
    for (int g = 0; g < waves; ++g) {
      const int victim = g * per_group + 1;  // never server 0 (leader_crash
                                             // covers the leader)
      const Time down = ft.fault_at + g * stagger;
      s.steps.crash_at(down, victim).recover_at(down + stagger, victim);
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Single-DC fault-plane tuning: repair/retry intervals sized for rack RTTs
/// so post-heal recovery completes within a scenario's after-phase (the
/// defaults are sized for WAN RTTs; see each Config's comments). Repair
/// windows stay at their production-scale defaults: a node that misses more
/// than the retained history is repaired by snapshot/state transfer, so the
/// old trick of inflating the windows until nothing ever fell out of them
/// (and memory grew with downtime) is gone.
inline TrialConfig fault_tuned(TrialConfig tc) {
  tc.canopus.fetch_timeout = 100 * kMillisecond;
  tc.epaxos.repair_retry = 25 * kMillisecond;
  tc.zab.sync_retry = 25 * kMillisecond;
  return tc;
}

/// Multi-DC fault-plane tuning for the Table 1 topology: repair windows
/// deep enough that a node or a whole DC dark through a long fault can
/// rejoin, but the DEFAULT retry timers — fault_tuned's 25 ms retries are
/// rack-scale tunings that would thrash 80+ ms WAN round trips.
inline TrialConfig wan_fault_tuned(TrialConfig tc) {
  tc.wan = true;
  tc.zab.history_depth = 16'384;
  tc.epaxos.repair_window = 16'384;
  return tc;
}

/// The compaction bound: the most log records any node of the configured
/// system may retain, regardless of how long a peer stayed dark. Every trial
/// checks ConsensusService::log_entries_retained against this at its end
/// (GroupReport::retention_ok) — with snapshots repairing anything beyond
/// the retained window, a breach means compaction silently stopped working.
inline std::uint64_t retained_log_bound(const TrialConfig& tc) {
  switch (tc.system) {
    case System::kRaft:
      // Retained = last_index - compaction base; compaction fires past the
      // threshold and keeps `compaction_keep`, so steady state sits near
      // threshold + keep with slack for entries committed between checks.
      return 2 * (tc.raft.compaction_threshold + tc.raft.compaction_keep);
    case System::kZab:
      return tc.zab.history_depth;  // the leader's catch-up ring, exact
    case System::kEPaxos:
      return tc.epaxos.repair_window;  // the repair ring, exact
    case System::kCanopus: {
      // prune_history keeps kept_cycles() committed cycles, plus what is in
      // flight.
      const std::uint64_t window =
          tc.canopus.pipelining ? core::kMaxOutstandingCycles : 1;
      return tc.canopus.kept_cycles() + window + 2;
    }
  }
  return 0;
}

// --------------------------------------------------------------------------
// Phase-splitting recorder
// --------------------------------------------------------------------------

/// Splits completions into per-phase recorders by request *arrival* time,
/// so each phase's throughput counts exactly the requests offered in it,
/// and pins the first completion of a request that arrived after the heal —
/// the client-observed recovery probe.
class PhasedRecorder final : public LatencyRecorder {
 public:
  explicit PhasedRecorder(const FaultTiming& ft) : heal_at_(ft.heal_at) {
    before_.set_window(ft.warmup, ft.fault_at);
    during_.set_window(ft.fault_at, ft.heal_at);
    after_.set_window(ft.heal_at, ft.end_at);
  }

  const LatencyRecorder& before() const { return before_; }
  const LatencyRecorder& during() const { return during_; }
  const LatencyRecorder& after() const { return after_; }

  /// Completion time of the first post-heal arrival; -1 if none completed.
  Time first_post_heal_completion() const { return first_after_; }

 protected:
  // The phase recorders' own locks are uncontended here (all calls arrive
  // under the outer recorder's mutex), and windowing by arrival keeps the
  // split order-independent.
  void on_complete(Time now, Time arrival) override {
    before_.complete(now, arrival);
    during_.complete(now, arrival);
    after_.complete(now, arrival);
    // Min over qualifying completions (not first-seen): shard workers may
    // deliver same-phase completions in any order, and min() is the unique
    // order-independent formulation that matches the serial answer.
    if (arrival >= heal_at_ && (first_after_ < 0 || now < first_after_))
      first_after_ = now;
  }

  void on_fail(Time arrival) override {
    before_.fail(arrival);
    during_.fail(arrival);
    after_.fail(arrival);
  }

 private:
  LatencyRecorder before_, during_, after_;
  Time heal_at_;
  Time first_after_ = -1;
};

// --------------------------------------------------------------------------
// Arming
// --------------------------------------------------------------------------

/// What arming a `recover` event against a system whose
/// supports_recover() is false should do. The silent
/// historical behavior — ConsensusService::recover returns false and the
/// node simply stays dark — is a correct *outcome* for a trial that
/// documents it, but a trap for schedule authors: a hand-written scenario
/// that expects the node back gets an unexplained availability hole.
enum class RecoverArming {
  /// Fail fast at arming time: throw std::invalid_argument naming the
  /// system and the number of doomed recover events. The default — a
  /// schedule that cannot take effect as written is a bug at the call
  /// site, not a measurement.
  kStrict,
  /// Accept the schedule; recover events against the unsupporting system
  /// no-op and the node stays dark. run_trial (workload/trial.h) passes
  /// this: every system has a repair path, but a hand-rolled config that
  /// disables one measures the degraded outcome instead of refusing to run.
  kTolerateUnsupported,
};

/// Arms a FaultSchedule on the network, routing node crash/recover through
/// the service that owns the node (so the protocol instance is silenced/
/// restarted together with the network) while sever/heal and the gray kinds
/// act on the network alone. `services` are the deployment's consensus
/// groups: one for a classic deployment, one per rack for a sharded one
/// (workload/sharded.h). They must outlive the armed events.
///
/// Throws std::invalid_argument when `mode` is kStrict, the schedule
/// contains recover events, and the services cannot re-admit nodes (see
/// RecoverArming).
inline void arm_via_service(const simnet::FaultSchedule& sched,
                            simnet::Network& net,
                            const std::vector<ConsensusService*>& services,
                            RecoverArming mode = RecoverArming::kStrict) {
  if (mode == RecoverArming::kStrict && !services.front()->supports_recover()) {
    std::size_t recovers = 0;
    for (const simnet::FaultEvent& ev : sched.events())
      if (ev.kind == simnet::FaultEvent::Kind::kRecover) ++recovers;
    if (recovers > 0)
      throw std::invalid_argument(
          std::string("arm_via_service: schedule arms ") +
          std::to_string(recovers) + " recover event(s) but " +
          services.front()->name() +
          " has supports_recover() == false — the node(s) would silently "
          "stay dark; pass RecoverArming::kTolerateUnsupported if that "
          "degraded outcome is the measurement");
  }
  auto owner = std::make_shared<
      std::unordered_map<NodeId, std::pair<ConsensusService*, std::size_t>>>();
  for (ConsensusService* svc : services)
    for (std::size_t i = 0; i < svc->num_servers(); ++i)
      (*owner)[svc->server_node(i)] = {svc, i};
  sched.arm(net, [owner](simnet::Network& n, const simnet::FaultEvent& ev) {
    switch (ev.kind) {
      case simnet::FaultEvent::Kind::kCrash: {
        const auto [svc, i] = owner->at(ev.a);
        svc->crash(i);
        break;
      }
      case simnet::FaultEvent::Kind::kRecover: {
        const auto [svc, i] = owner->at(ev.a);
        svc->recover(i);
        break;
      }
      default:
        simnet::FaultSchedule::apply(n, ev);
    }
  });
}

inline void arm_via_service(const simnet::FaultSchedule& sched,
                            simnet::Network& net, ConsensusService& service,
                            RecoverArming mode = RecoverArming::kStrict) {
  arm_via_service(sched, net, std::vector<ConsensusService*>{&service}, mode);
}

/// Lowers a scenario's server indices onto concrete NodeIds. `servers` is
/// the fleet-wide server list the indices address (cluster.servers;
/// sharded deployments pass the same list with group-scoped scenarios
/// mapped through scope_to_group first).
inline simnet::FaultSchedule make_schedule(const FaultScenario& scenario,
                                           const std::vector<NodeId>& servers) {
  return scenario.steps.relabeled([&servers](NodeId idx) {
    return servers.at(idx);
  });
}

/// Re-scopes a scenario authored in group-LOCAL server indices (0 ..
/// per_group-1) onto group `group` of a sharded fleet: every index is
/// offset by group * per_group. This is how the fault plane targets one
/// consensus group of a sharded deployment instead of the whole fleet.
inline FaultScenario scope_to_group(FaultScenario s, int group,
                                    int per_group) {
  const NodeId offset = group * per_group;
  s.steps = s.steps.relabeled([offset](NodeId idx) { return idx + offset; });
  s.name += "@group" + std::to_string(group);
  return s;
}

/// The scenario the snapshot/state-transfer layer exists for: ONE server
/// stays dark long enough for the survivors to commit more writes than any
/// retained history covers (Zab's history ring, EPaxos' repair ring, Raft's
/// compacted log, Canopus' pruned cycles), then recovers. Before snapshots
/// this was the silent catch-up stall: the returning node fetched history
/// that no longer existed and retried forever while the windows were
/// inflated trial-by-trial to paper over it. Now the node must come back by
/// state transfer — snapshots_installed > 0, retention_ok, and convergence
/// are the assertions.
inline FaultScenario long_downtime_scenario(int per_group,
                                            const FaultTiming& ft) {
  FaultScenario s;
  s.name = "long_downtime";
  s.description =
      "one server dark past every retained-history window, rejoins by "
      "snapshot/state transfer";
  const int victim = per_group;  // first server of group 1
  s.steps.crash_at(ft.fault_at, victim).recover_at(ft.heal_at, victim);
  return s;
}

/// Timing for long_downtime: the fault window spans enough commits at
/// scenario rates to overflow every production-scale history window, and
/// the after-phase covers the slowest repair path (Canopus re-admission
/// waits out a 3x-election-timeout grace after the exclusion before a
/// sibling sponsors the rejoin).
inline FaultTiming long_downtime_timing() {
  FaultTiming ft;
  ft.warmup = 200 * kMillisecond;
  ft.fault_at = 500 * kMillisecond;
  ft.heal_at = 2'500 * kMillisecond;  // ~2 s dark
  ft.end_at = 4'500 * kMillisecond;
  ft.drain = 800 * kMillisecond;
  return ft;
}

/// Timing for faults on the Table 1 WAN topology: every phase dwarfs the
/// 80+ ms inter-DC round trips.
inline FaultTiming wan_fault_timing() {
  FaultTiming ft;
  ft.warmup = 500 * kMillisecond;
  ft.fault_at = 1'500 * kMillisecond;
  ft.heal_at = 3'000 * kMillisecond;
  ft.end_at = 4'500 * kMillisecond;
  ft.drain = 1'000 * kMillisecond;
  return ft;
}

/// Geo-failover: every server of datacenter `dc` crashes at fault_at and
/// recovers at heal_at — the bench_failures --wan scenario. Killing DC 0
/// takes the Zab/Raft leader with it, so the during-phase availability and
/// the failover time measure leader re-election under a whole-DC outage;
/// for Canopus a dead DC is a dead super-leaf: a documented stall
/// (majority_loss semantics) until the DC's pnodes rejoin — and a whole-DC
/// outage leaves no live sibling to sponsor the first joiner, so the DC
/// can only come back once the deployment's membership machinery re-admits
/// it (the during-phase stall is the measurement).
inline FaultScenario dc_outage_scenario(int dc, int per_group,
                                        const FaultTiming& ft) {
  FaultScenario s;
  s.name = "dc" + std::to_string(dc) + "_outage";
  s.description = "all servers of datacenter " + std::to_string(dc) +
                  " crash, later recover (geo-failover)";
  s.majority_loss = true;  // a whole super-leaf is gone: Canopus must stall
  for (int v = dc * per_group; v < (dc + 1) * per_group; ++v)
    s.steps.crash_at(ft.fault_at, v).recover_at(ft.heal_at, v);
  return s;
}

/// The root seed of a scenario trial: trial_seed salted with the scenario
/// name, so every scenario of a suite draws its own client stream.
inline std::uint64_t scenario_seed(const TrialConfig& tc,
                                   const FaultScenario& scenario,
                                   double offered_rate) {
  return derive_seed(trial_seed(tc, offered_rate),
                     std::hash<std::string>{}(scenario.name));
}

}  // namespace canopus::workload
