// Trial: the one pipeline every experiment runs — deploy, attach clients,
// optionally arm faults and the auditor, run, then measure and check
// agreement. The paper's figures (§8) are fault-free trials; the fault
// scenarios, chaos storms and sharding studies are the same trial with
// more axes set.
//
// A Trial has three axes:
//  * deployment — one consensus group over the whole cluster behind
//    OpenLoopClients (sessions_per_machine == 0), or one group per rack
//    behind RouterClients hosting that many sessions per client machine
//    (workload/sharded.h);
//  * faults — none, or a FaultSchedule armed through the owning services
//    on a FaultTiming's phases, with one HistoryAuditor per group on or off;
//  * backend — tc.runtime: the simulator, or real threads (fault-free
//    trials only).
//
// The caller picks the root seed (trial_seed, scenario_seed,
// chaos_trial_seed, or a pinned one) and draws storms itself (chaos_storm),
// so a trial is a pure function of its fields: results are bit-identical
// across --threads and --sim-threads, and a red grid point replays from its
// coordinates alone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "simnet/fault_schedule.h"
#include "workload/audit.h"
#include "workload/chaos.h"
#include "workload/deployments.h"
#include "workload/fault_scenario.h"
#include "workload/runner.h"
#include "workload/sharded.h"

namespace canopus::workload {

struct Trial {
  Trial(TrialConfig tc, double rate, std::uint64_t seed,
        std::uint32_t sessions_per_machine = 0)
      : tc(std::move(tc)),
        rate(rate),
        seed(seed),
        sessions_per_machine(sessions_per_machine) {}

  TrialConfig tc;
  double rate;         ///< offered load, requests/second, all clients
  std::uint64_t seed;  ///< root seed of the simulator and the clients
  /// 0: one consensus group over the cluster, OpenLoopClients. N > 0: one
  /// group per rack, RouterClients hosting N sessions per client machine.
  std::uint32_t sessions_per_machine;
  /// Armed through the owning services when set; the trial then runs on
  /// `timing`'s phases instead of tc's warmup/measure/drain window.
  std::optional<simnet::FaultSchedule> faults;
  FaultTiming timing;
  /// One HistoryAuditor per group. An audited trial is judged by its
  /// invariants and schedules no progress probes, so it keeps the event
  /// count it always had; its report leaves the probe fields empty.
  bool audit = false;
};

/// End-of-run check of one consensus group. Fingerprints are rolling
/// hashes, so nodes frozen at different commit counts are not directly
/// comparable — a system stalled mid-broadcast legitimately freezes its
/// survivors a cycle apart. Agreement is therefore asserted per count
/// class: comparable nodes with equal counts must hold equal fingerprints,
/// the split-brain signature. The count spread is reported separately, and
/// converged() is the strict check for wherever convergence is expected.
struct GroupReport {
  std::size_t comparable = 0;  ///< nodes in the check (comparable())
  bool agree = true;
  std::uint64_t max_count = 0;    ///< committed writes over comparable nodes
  std::uint64_t min_count = 0;
  std::uint64_t fingerprint = 0;  ///< at the deepest count class
  std::uint64_t snapshots = 0;    ///< installed, over all nodes
  std::uint64_t max_retained = 0;  ///< log records, max over live nodes
  bool retention_ok = true;        ///< max_retained <= retained_log_bound

  // Audited trials: the group's HistoryAuditor. Its committed counts replay
  // the commit hooks, so after a snapshot install they differ from the
  // service counts above (an install adopts a prefix wholesale).
  std::uint64_t violations = 0;
  std::uint64_t acked_writes = 0;
  std::uint64_t observed_reads = 0;
  std::uint64_t audited_max = 0;  ///< replayed writes over comparable nodes
  std::uint64_t audited_min = 0;

  /// Every comparable node holds the same commit count and fingerprint.
  bool converged() const { return agree && max_count == min_count; }
};

/// The fleet check of one group against its compaction bound.
inline GroupReport check_group(const ConsensusService& svc,
                               std::uint64_t retained_bound) {
  GroupReport g;
  std::unordered_map<std::uint64_t, std::uint64_t> fp_by_count;
  for (std::size_t i = 0; i < svc.num_servers(); ++i) {
    g.snapshots += svc.snapshots_installed(i);
    if (svc.up(i))
      g.max_retained = std::max(g.max_retained, svc.log_entries_retained(i));
    if (!svc.comparable(i)) continue;
    const std::uint64_t count = svc.committed_writes(i);
    const std::uint64_t fp = svc.commit_fingerprint(i);
    const auto [it, fresh] = fp_by_count.emplace(count, fp);
    if (!fresh && it->second != fp) g.agree = false;
    g.min_count = g.comparable == 0 ? count : std::min(g.min_count, count);
    g.max_count = std::max(g.max_count, count);
    ++g.comparable;
  }
  if (g.comparable > 0) g.fingerprint = fp_by_count.at(g.max_count);
  g.retention_ok = g.max_retained <= retained_bound;
  return g;
}

struct TrialReport {
  /// Client-observed load: `steady` over [warmup, warmup + measure) of a
  /// fault-free trial; before/during/after split a faulted trial at its
  /// FaultTiming boundaries, by request arrival.
  Measurement steady, before, during, after;

  std::vector<GroupReport> groups;  ///< one per consensus group
  std::vector<AuditViolation> violation_details;  ///< capped sample

  // Client machines, summed.
  std::uint64_t sent = 0;
  std::uint64_t client_failed = 0;  ///< given up: crashed target, or every
                                    ///< router retry exhausted
  std::uint64_t sessions = 0;       ///< RouterClients only
  std::uint64_t redirects = 0;      ///< RouterClients only
  std::uint64_t retries = 0;        ///< RouterClients only

  // Faulted trials.
  std::uint64_t fault_events = 0;  ///< schedule entries / 2
  /// Completion of the first WRITE that arrived at or after fault_at, minus
  /// fault_at; -1 when none completed (e.g. Canopus after losing a whole
  /// super-leaf). Writes, not reads: reads are served from a node's local
  /// store and keep completing through a leader outage, so they would hide
  /// exactly the re-election gap this measures.
  Time failover_ns = -1;
  /// Completion of the first request that arrived at or after heal_at,
  /// minus heal_at; -1 when the system never served another request.
  Time recovery_ns = -1;
  /// Max progress over live nodes, in protocol units. The fault, mid and
  /// heal probes run on unaudited faulted trials only and are empty
  /// otherwise; "stalled" is judged over the second half of the fault
  /// window, because commits in flight at the fault instant legitimately
  /// land a propagation delay later.
  std::optional<std::uint64_t> progress_at_fault;
  std::optional<std::uint64_t> progress_at_mid;  ///< (fault_at + heal_at) / 2
  std::optional<std::uint64_t> progress_at_heal;
  std::uint64_t progress_at_end = 0;

  /// Trace digest: every server in fleet order, plus the network and the
  /// event kernel (simulator only) — what bit-identity checks compare.
  struct NodeDigest {
    std::uint64_t fingerprint = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    bool operator==(const NodeDigest&) const = default;
  };
  std::vector<NodeDigest> nodes;
  simnet::NetworkStats net;
  std::uint64_t events = 0;

  bool agree() const {
    return std::all_of(groups.begin(), groups.end(),
                       [](const GroupReport& g) { return g.agree; });
  }
  /// Every group converged: the strict check for trials that drain clean.
  bool converged() const {
    return std::all_of(groups.begin(), groups.end(),
                       [](const GroupReport& g) { return g.converged(); });
  }
  bool retention_ok() const {
    return std::all_of(groups.begin(), groups.end(),
                       [](const GroupReport& g) { return g.retention_ok; });
  }
  std::uint64_t violations() const { return sum(&GroupReport::violations); }
  std::uint64_t acked_writes() const {
    return sum(&GroupReport::acked_writes);
  }
  /// Committed writes, summed over the groups' maxima.
  std::uint64_t committed_writes() const {
    return sum(&GroupReport::max_count);
  }
  bool failed_over() const { return failover_ns >= 0; }
  bool recovered() const { return recovery_ns >= 0; }
  /// Liveness verdicts from the progress probes; they throw
  /// std::bad_optional_access on a trial that ran none.
  bool stalled_during() const {
    return progress_at_heal.value() <= progress_at_mid.value();
  }
  bool progressed_after() const {
    return progress_at_end > progress_at_heal.value();
  }

 private:
  std::uint64_t sum(std::uint64_t GroupReport::*field) const {
    std::uint64_t total = 0;
    for (const GroupReport& g : groups) total += g.*field;
    return total;
  }
};

namespace detail {

/// The deployed groups and client machines of a trial on one backend. A
/// machine's index is its attach order (the auditors' client index).
struct Deployment {
  Deployment(const Trial& t, const simnet::Cluster& cluster,
             runtime::Host& host, std::shared_ptr<LatencyRecorder> recorder,
             Time stop_at) {
    if (t.sessions_per_machine == 0) {
      groups.push_back(make_service(t.tc, cluster, host));
      for (auto& c : attach_clients(t.tc, cluster, host, std::move(recorder),
                                    t.rate, t.seed, stop_at))
        machines.push_back(std::move(c));
    } else {
      groups = make_group_services(t.tc, cluster, host);
      for (auto& c : attach_router_clients(t.tc, t.sessions_per_machine,
                                           cluster, host, std::move(recorder),
                                           t.rate, t.seed, stop_at))
        machines.push_back(std::move(c));
    }
    for (std::size_t g = 0; g < groups.size(); ++g)
      for (std::size_t i = 0; i < groups[g]->num_servers(); ++i)
        locate[groups[g]->server_node(i)] = {g, i};
  }

  /// Installs fn(machine, group, server index, completion) as every client
  /// machine's reply hook.
  template <class Fn>
  void on_reply(Fn fn) {
    for (std::size_t m = 0; m < machines.size(); ++m)
      machines[m]->on_reply = [this, fn, m](NodeId server,
                                            const kv::Completion& c) {
        const auto [g, i] = locate.at(server);
        fn(m, g, i, c);
      };
  }

  /// Max progress over live nodes of every group.
  std::uint64_t max_progress() const {
    std::uint64_t p = 0;
    for (const auto& g : groups)
      for (std::size_t i = 0; i < g->num_servers(); ++i)
        if (g->up(i)) p = std::max(p, g->progress(i));
    return p;
  }

  /// Fills the fleet checks, the per-node digest and the client counters.
  void report(const TrialConfig& tc, TrialReport& r) const {
    const std::uint64_t bound = retained_log_bound(tc);
    for (const auto& g : groups) {
      r.groups.push_back(check_group(*g, bound));
      for (std::size_t i = 0; i < g->num_servers(); ++i)
        r.nodes.push_back({g->commit_fingerprint(i), g->committed_writes(i),
                           g->served_reads(i)});
    }
    for (const auto& m : machines) {
      r.sent += m->sent();
      r.client_failed += m->failed();
      if (const auto* router = dynamic_cast<const RouterClient*>(m.get())) {
        r.sessions += router->sessions();
        r.redirects += router->redirects();
        r.retries += router->retries();
      }
    }
    r.progress_at_end = max_progress();
  }

  std::vector<std::unique_ptr<ConsensusService>> groups;
  std::unordered_map<NodeId, std::pair<std::size_t, std::size_t>> locate;
  std::vector<std::unique_ptr<ClientMachine>> machines;
};

}  // namespace detail

/// Runs a fault-free trial on the threaded runtime (wall-clock; defined in
/// runtime/threaded_trial.cpp, linked via the canopus_runtime library).
TrialReport run_trial_on_threads(const Trial& t);

/// Runs one trial. Deterministic on the simulator: the report is a pure
/// function of the Trial.
inline TrialReport run_trial(const Trial& t) {
  if (t.tc.runtime == RuntimeKind::kThreads) return run_trial_on_threads(t);
  const FaultTiming& ft = t.timing;
  const bool faulted = t.faults.has_value();
  const Time warmup = faulted ? ft.warmup : t.tc.warmup;
  const Time stop_at = faulted ? ft.end_at : t.tc.warmup + t.tc.measure;
  const Time deadline = stop_at + (faulted ? ft.drain : t.tc.drain);

  simnet::Simulator sim(t.seed);
  simnet::Cluster cluster = build_cluster(t.tc);
  if (t.tc.sim_threads > 1)
    sim.configure_shards(
        cluster.topo, simnet::make_shard_map(cluster.topo, t.tc.sim_threads));
  simnet::Network net(sim, cluster.topo, t.tc.cpu);
  auto phased = faulted ? std::make_shared<PhasedRecorder>(ft) : nullptr;
  std::shared_ptr<LatencyRecorder> recorder = phased;
  if (!faulted) {
    recorder = std::make_shared<LatencyRecorder>();
    recorder->set_window(warmup, stop_at);
  }
  detail::Deployment d(t, cluster, net, recorder, stop_at);

  TrialReport r;
  std::vector<std::unique_ptr<HistoryAuditor>> auditors;
  if (t.audit) {
    AuditConfig ac;
    ac.ordered = t.tc.system != System::kEPaxos;
    for (const auto& g : d.groups) {
      auditors.push_back(
          std::make_unique<HistoryAuditor>(ac, g->num_servers()));
      auditors.back()->attach_service(*g, sim, warmup, deadline);
    }
  }
  // Failover pin: min completion time over post-fault-arrival writes.
  // min() is order-independent, and the mutex covers concurrent client
  // shards under the PDES kernel — serial and sharded runs agree.
  std::mutex failover_mu;
  Time first_write_after = -1;
  if (faulted || t.audit)
    d.on_reply([&](std::size_t machine, std::size_t g, std::size_t i,
                   const kv::Completion& c) {
      if (t.audit) auditors[g]->note_reply(machine, i, c, sim.now());
      if (!faulted || !c.is_write || c.arrival < ft.fault_at) return;
      const Time now = sim.now();
      std::lock_guard<std::mutex> lock(failover_mu);
      if (first_write_after < 0 || now < first_write_after)
        first_write_after = now;
    });
  if (faulted) {
    // Progress probes, before arming so a probe at the same timestamp
    // observes the pre-fault state (the event queue is FIFO for ties).
    // Audited trials skip them (see Trial::audit).
    if (!t.audit) {
      sim.at(ft.fault_at, [&] { r.progress_at_fault = d.max_progress(); });
      sim.at(ft.fault_at + (ft.heal_at - ft.fault_at) / 2,
             [&] { r.progress_at_mid = d.max_progress(); });
      sim.at(ft.heal_at, [&] { r.progress_at_heal = d.max_progress(); });
    }
    std::vector<ConsensusService*> services;
    for (const auto& g : d.groups) services.push_back(g.get());
    arm_via_service(*t.faults, net, services,
                    RecoverArming::kTolerateUnsupported);
    r.fault_events = t.faults->events().size() / 2;
  }

  if (t.tc.sim_threads > 1)
    sim.run_parallel_until(deadline);
  else
    sim.run_until(deadline);

  if (faulted) {
    r.before = measure(phased->before(), t.rate);
    r.during = measure(phased->during(), t.rate);
    r.after = measure(phased->after(), t.rate);
    const Time first = phased->first_post_heal_completion();
    r.recovery_ns = first >= 0 ? first - ft.heal_at : -1;
    r.failover_ns = first_write_after >= 0 ? first_write_after - ft.fault_at
                                           : -1;
  } else {
    r.steady = measure(*recorder, t.rate);
  }
  d.report(t.tc, r);
  for (std::size_t g = 0; g < auditors.size(); ++g) {
    HistoryAuditor& a = *auditors[g];
    a.finalize(sim.now());
    GroupReport& gr = r.groups[g];
    gr.violations = a.violation_count();
    gr.acked_writes = a.acked_writes();
    gr.observed_reads = a.observed_reads();
    bool first = true;
    for (std::size_t i = 0; i < d.groups[g]->num_servers(); ++i) {
      if (!d.groups[g]->comparable(i)) continue;
      const std::uint64_t replayed = a.committed_writes(i);
      gr.audited_max = std::max(gr.audited_max, replayed);
      gr.audited_min = first ? replayed : std::min(gr.audited_min, replayed);
      first = false;
    }
    for (const AuditViolation& v : a.violations())
      if (r.violation_details.size() < AuditConfig{}.max_recorded)
        r.violation_details.push_back(v);
  }
  r.net = net.stats();
  r.events = sim.events_processed();
  return r;
}

/// Runs one fault-free trial at `offered_rate` total requests/second
/// (spread evenly over all client machines) and reports client-observed
/// completions.
inline Measurement run_trial(const TrialConfig& tc, double offered_rate) {
  return run_trial({tc, offered_rate, trial_seed(tc, offered_rate)}).steady;
}

/// Convenience: a TrialFn bound to a TrialConfig.
inline TrialFn make_trial(TrialConfig tc) {
  return [tc](double rate) { return run_trial(tc, rate); };
}

/// The scenario trial: `scenario` lowered onto the cluster's servers and
/// armed on `ft`'s phases, unaudited.
inline Trial scenario_trial(const TrialConfig& tc,
                            const FaultScenario& scenario,
                            const FaultTiming& ft, double offered_rate) {
  Trial t(tc, offered_rate, scenario_seed(tc, scenario, offered_rate));
  t.faults = make_schedule(scenario, build_cluster(tc).servers);
  t.timing = ft;
  return t;
}

/// The storm `t` arms at intensity `ci`: the intensity's generator knobs
/// over t.timing's storm window [fault_at, heal_at], seeded from the trial's
/// root seed. The deployment decides the scope: a one-group trial draws one
/// storm over the fleet; a sharded trial draws one storm per group over that
/// group's servers, each from its own derived seed, merged, so every group
/// gets faults at the configured intensity (the blast radius applies per
/// group). Also the starting point StormMinimizer reduces.
inline simnet::FaultSchedule chaos_storm(const Trial& t,
                                         const ChaosIntensity& ci) {
  const simnet::Cluster cluster = build_cluster(t.tc);
  simnet::ChaosConfig cc = ci.storm;
  cc.start = t.timing.fault_at;
  cc.end = t.timing.heal_at;
  const std::uint64_t storm_seed = derive_seed(t.seed, 0xc4a0c5ULL);
  if (t.sessions_per_machine == 0) {
    simnet::ChaosScheduleGenerator gen(storm_seed);
    return gen.generate(cc, cluster.servers);
  }
  simnet::FaultSchedule storm;
  const std::vector<std::vector<NodeId>> groups = group_servers(t.tc, cluster);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    simnet::ChaosScheduleGenerator gen(derive_seed(storm_seed, g));
    storm.merge(gen.generate(cc, groups[g]));
  }
  return storm;
}

/// The audited chaos trial of one grid point: chaos_storm armed on `ft`'s
/// phases, under the seed chaos_trial_seed derives from the coordinates.
inline Trial chaos_trial(const TrialConfig& tc, const ChaosIntensity& ci,
                         const FaultTiming& ft, double offered_rate,
                         std::uint32_t sessions_per_machine = 0) {
  Trial t(tc, offered_rate, chaos_trial_seed(tc, ci, offered_rate),
          sessions_per_machine);
  t.timing = ft;
  t.audit = true;
  t.faults = chaos_storm(t, ci);
  return t;
}

}  // namespace canopus::workload
