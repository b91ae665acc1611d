// canopus_e2e — the repository's end-to-end benchmark program.
//
//   canopus_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace] [--json=PATH]
//
// One invocation runs one workload in this process: an open-loop Poisson
// load (workload::OpenLoopClient, uniform keys over 1M) at two offered rates,
// `lo` and `hi`, against one paper deployment. Every trial is composed from
// the public pipeline — build_cluster, simnet::Network, make_service,
// attach_clients, and for `faults` also make_schedule, arm_via_service and
// a HistoryAuditor — and timed from outside those calls.
//
// Untraced (the default) it prints the end-to-end metrics. With --trace it
// re-runs the same trials serially with a timing proxy in front of every
// node (see TimingProxy), checks that the proxied run is bit-identical to
// the plain one, and prints the per-layer metrics too. Either way it exits
// nonzero when a trial is incorrect: an audit violation, comparable servers
// disagreeing on a digest at equal commit counts, a retained log above
// retained_log_bound, repeats of one trial that differ, or a traced run that
// does not reproduce the plain one. bench/e2e/README.md defines every
// metric.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "workload/audit.h"
#include "workload/chaos.h"
#include "workload/deployments.h"
#include "workload/fault_scenario.h"

namespace {

using namespace canopus;
using namespace canopus::workload;
using canopus::e2e::heap_allocations;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

double ms(Time t) { return static_cast<double>(t) / kMillisecond; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

/// One benchmark workload: a deployment, a request mix and two offered
/// rates. `hi` sits just below the knee measured at seed 1, `lo` at half of
/// it or less, so the pair shows both the unloaded latency and the latency
/// under queueing.
struct Workload {
  const char* name;
  TrialConfig tc;  ///< warmup and drain are used; measure comes from below
  double lo = 0;   ///< offered load, req/s
  double hi = 0;
  /// Simulation threads of the untraced trials (PDES kernel when > 1).
  unsigned sim_threads = 1;
  /// Measure window of each trial per second of --seconds, so a run's
  /// simulated work is a pure function of its arguments.
  Time measure_per_s = 0;
  /// Simulated prefix of the hi trial whose wall time wall_s reports (see
  /// measure_trial).
  Time timed = 0;
  /// rolling_crashes under the default FaultTiming (which fixes the
  /// windows) with the audit plane attached.
  bool faults = false;
};

TrialConfig lan_base(System system, double write_ratio) {
  TrialConfig tc;  // Fig 4(a): 3 racks x 9 servers, 5 client machines/rack
  tc.system = system;
  tc.groups = 3;
  tc.per_group = 9;
  tc.client_machines = 5;
  tc.write_ratio = write_ratio;
  tc.warmup = 400 * kMillisecond;
  tc.drain = 100 * kMillisecond;  // 10x the slowest LAN p999
  return tc;
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  {
    Workload w{"lan-read", lan_base(System::kCanopus, 0.2)};
    w.lo = 750'000;
    w.hi = 1'500'000;
    w.measure_per_s = 30 * kMillisecond;
    w.timed = 300 * kMillisecond;
    out.push_back(w);
  }
  {
    Workload w{"lan-write", lan_base(System::kCanopus, 1.0)};
    w.lo = 300'000;
    w.hi = 600'000;
    w.measure_per_s = 30 * kMillisecond;
    w.timed = 300 * kMillisecond;
    out.push_back(w);
  }
  {
    // Fig 6: Table 1 sites x 3 servers, pipelined Canopus (a cycle every
    // 5 ms or 1000 requests).
    Workload w{"wan", TrialConfig{}};
    w.tc.wan = true;
    w.tc.groups = 7;
    w.tc.per_group = 3;
    w.tc.client_machines = 5;
    w.tc.warmup = 1'200 * kMillisecond;  // several WAN round trips
    w.tc.drain = 600 * kMillisecond;     // the widest RTT plus a cycle wait
    w.tc.canopus.pipelining = true;
    w.tc.canopus.cycle_interval = 5 * kMillisecond;
    w.tc.canopus.max_batch = 1'000;
    w.lo = 400'000;
    w.hi = 2'000'000;
    w.sim_threads = 2;
    w.measure_per_s = 30 * kMillisecond;
    w.timed = 800 * kMillisecond;
    out.push_back(w);
  }
  {
    Workload w{"epaxos", lan_base(System::kEPaxos, 0.2)};
    w.tc.epaxos.batch_interval = 5 * kMillisecond;
    w.lo = 200'000;
    w.hi = 400'000;
    w.measure_per_s = 130 * kMillisecond;
    w.timed = 600 * kMillisecond;
    out.push_back(w);
  }
  {
    Workload w{"faults", fault_tuned(lan_base(System::kCanopus, 0.2))};
    w.lo = 200'000;
    w.hi = 400'000;
    w.faults = true;
    w.timed = 1'000 * kMillisecond;
    out.push_back(w);
  }
  return out;
}

/// Simulated-time layout of one trial: requests arriving in [begin, end)
/// are measured, clients stop generating at `end`, and the run drains until
/// `deadline`.
struct Phases {
  Time begin = 0;
  Time end = 0;
  Time deadline = 0;
};

Phases phases_of(const Workload& w, double seconds) {
  if (w.faults) {
    const FaultTiming ft;
    return {ft.warmup, ft.end_at, ft.end_at + ft.drain};
  }
  const Time measure = std::max<Time>(
      static_cast<Time>(std::llround(seconds * static_cast<double>(w.measure_per_s))),
      100 * kMillisecond);
  return {w.tc.warmup, w.tc.warmup + measure, w.tc.warmup + measure + w.tc.drain};
}

/// Trial seed: run_trial's derivation per offered rate, plus
/// run_chaos_trial's portable scenario salt for the fault trials.
std::uint64_t trial_seed(const Workload& w, std::uint64_t seed, double rate) {
  const std::uint64_t s = derive_seed(seed, std::bit_cast<std::uint64_t>(rate));
  return w.faults ? derive_seed(s, chaos_salt("rolling_crashes")) : s;
}

// --------------------------------------------------------------------------
// Client-side measurement
// --------------------------------------------------------------------------

/// Keeps every in-window latency as a raw sample (ns, saturating at 2^32-1,
/// about 4.3 s) so percentiles are exact nearest-rank values rather than
/// LatencyHistogram's 3% buckets. Runs under the recorder mutex, so sharded
/// runs append safely; order does not matter (samples are sorted).
class SampleRecorder final : public LatencyRecorder {
 public:
  explicit SampleRecorder(std::size_t expected) { samples.reserve(expected); }

  std::vector<std::uint32_t> samples;
  std::uint64_t completed_all = 0;  ///< every completion, any arrival time
  std::uint64_t latency_sum = 0;    ///< over in-window samples (identity gate)

 protected:
  void on_complete(Time now, Time arrival) override {
    ++completed_all;
    if (arrival < window_begin() || arrival >= window_end()) return;
    const auto lat = static_cast<std::uint64_t>(std::max<Time>(now - arrival, 0));
    latency_sum += lat;
    samples.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(lat, std::numeric_limits<std::uint32_t>::max())));
  }
};

/// Longest stretch of [begin, end) without a write completion.
Time longest_gap(std::vector<Time> at, Time begin, Time end) {
  std::sort(at.begin(), at.end());
  Time prev = begin, gap = 0;
  for (const Time t : at) {
    gap = std::max(gap, t - prev);
    prev = t;
  }
  return std::max(gap, end - prev);
}

// --------------------------------------------------------------------------
// Tracing: a timing proxy in front of every node
// --------------------------------------------------------------------------

/// Layers a delivery is credited to, by the module that owns its payload.
enum Layer { kRbcast, kCanopusLayer, kEpaxosLayer, kKv, kWorkload, kOther,
             kLayers };

Layer layer_of(simnet::PayloadTag t) {
  using T = simnet::PayloadTag;
  switch (t) {
    case T::kRaftWire:
    case T::kSwitchFrame:
      return kRbcast;
    case T::kCanopusProposal:
    case T::kCanopusProposalRequest:
    case T::kCanopusJoinRequest:
    case T::kCanopusJoinAck:
      return kCanopusLayer;
    case T::kEpaxosPreAccept:
    case T::kEpaxosPreAcceptOk:
    case T::kEpaxosCommit:
    case T::kEpaxosFetch:
    case T::kEpaxosCommitFull:
    case T::kEpaxosSeqProbe:
    case T::kEpaxosSeqInfo:
    case T::kEpaxosSnapRequest:
    case T::kEpaxosSnapshot:
      return kEpaxosLayer;
    case T::kKvClientBatch:
      return kKv;
    case T::kKvReplyBatch:
      return kWorkload;
    default:
      return kOther;
  }
}

struct LayerCost {
  std::uint64_t msgs = 0;
  std::uint64_t ns = 0;      ///< handler wall time minus nested audit time
  std::uint64_t allocs = 0;  ///< handler allocations minus nested audit ones
};

/// Everything a traced trial records. Serial runs only: the proxies and
/// audit wrappers update it without synchronization.
struct TraceLedger {
  std::array<LayerCost, kLayers> layer{};
  std::uint64_t proposal_requests = 0;
  std::uint64_t client_reqs = 0;  ///< requests in ClientBatches at servers
  std::uint64_t early_reqs = 0;   ///< ... delivered before their arrival stamp
  std::uint64_t replies = 0;      ///< completions in ReplyBatches at clients
  std::uint64_t reqs_dropped_joining = 0;
  std::uint64_t audit_ns = 0;
  std::uint64_t audit_allocs = 0;
  std::uint64_t proxies = 0;
};

/// Runs `fn` as audit-plane work: its time and allocations are credited to
/// the audit plane and excluded from the enclosing handler's.
template <class Fn>
void audited(TraceLedger& ledger, Fn&& fn) {
  const std::uint64_t a0 = heap_allocations();
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  ledger.audit_allocs += heap_allocations() - a0;
  ledger.audit_ns += ns_between(t0, t1);
}

/// Forwarding runtime::Host that records each attached (NodeId, Process&)
/// so the traced run can put a TimingProxy in front of it.
class RecordingHost final : public runtime::Host {
 public:
  explicit RecordingHost(simnet::Network& net) : net_(net) {}

  void attach(NodeId id, simnet::Process& proc) override {
    attached.emplace_back(id, &proc);
    net_.attach(id, proc);
  }
  void crash(NodeId n) override { net_.crash(n); }
  void recover(NodeId n) override { net_.recover(n); }
  bool is_up(NodeId n) const override { return net_.is_up(n); }
  void sever(NodeId a, NodeId b) override { net_.sever(a, b); }
  void heal(NodeId a, NodeId b) override { net_.heal(a, b); }
  void set_clock_skew(NodeId n, double rate, Time offset) override {
    net_.set_clock_skew(n, rate, offset);
  }
  void post(NodeId n, simnet::InlineFn fn) override {
    net_.post(n, std::move(fn));
  }

  std::vector<std::pair<NodeId, simnet::Process*>> attached;

 private:
  simnet::Network& net_;
};

/// Attached to a node's NodeId after the real process, so Network dispatch
/// reaches the proxy while the real process keeps the handles and RNG it
/// was wired with. on_start is a no-op (the real process's was already
/// scheduled); on_message times the real handler and counts the
/// allocations it makes. The run stays bit-identical to an unproxied one
/// except for one extra (empty) start event per proxy.
class TimingProxy final : public simnet::Process {
 public:
  TimingProxy(simnet::Process& real, TraceLedger& ledger,
              const core::CanopusNode* canopus)
      : real_(real), ledger_(ledger), canopus_(canopus) {}

  void on_start() override {}

  void on_message(const simnet::Message& m) override {
    const simnet::PayloadTag tag = m.payload().tag();
    if (const auto* batch = m.as<kv::ClientBatch>()) {
      const Time now = sim().now();
      for (const kv::Request& r : batch->reqs)
        if (now < r.arrival) ++ledger_.early_reqs;
      ledger_.client_reqs += batch->reqs.size();
      // A joining Canopus node ignores client traffic without replying.
      if (canopus_ != nullptr && !canopus_->crashed() && canopus_->joining())
        ledger_.reqs_dropped_joining += batch->reqs.size();
    } else if (const auto* reply = m.as<kv::ReplyBatch>()) {
      ledger_.replies += reply->done.size();
    } else if (tag == simnet::PayloadTag::kCanopusProposalRequest) {
      ++ledger_.proposal_requests;
    }
    LayerCost& cost = ledger_.layer[layer_of(tag)];
    const std::uint64_t audit_ns0 = ledger_.audit_ns;
    const std::uint64_t audit_allocs0 = ledger_.audit_allocs;
    const std::uint64_t a0 = heap_allocations();
    const auto t0 = Clock::now();
    real_.on_message(m);
    const auto t1 = Clock::now();
    const std::uint64_t allocs = heap_allocations() - a0;
    ++cost.msgs;
    cost.ns += ns_between(t0, t1) - (ledger_.audit_ns - audit_ns0);
    cost.allocs += allocs - (ledger_.audit_allocs - audit_allocs0);
  }

 private:
  simnet::Process& real_;
  TraceLedger& ledger_;
  const core::CanopusNode* canopus_;
};

// --------------------------------------------------------------------------
// One trial
// --------------------------------------------------------------------------

/// Simulated time advanced per timed slice (see measure_trial).
constexpr Time kSlice = 10 * kMillisecond;

struct TrialResult {
  double run_wall_s = 0;  ///< run + audit finalize, excluding setup
  std::vector<double> slice_walls;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  ///< in the run
  /// The timed prefix (measure_trial): its wall time and events.
  double timed_wall_s = 0;
  std::uint64_t timed_events = 0;
  std::uint64_t timed_messages = 0;

  std::uint64_t attempted = 0;  ///< arrivals inside the window
  std::uint64_t completed = 0;  ///< ... that completed by the end of drain
  std::uint64_t completed_all = 0;
  std::uint64_t latency_sum = 0;
  std::vector<std::uint32_t> samples;
  Time unavail = 0;

  std::vector<std::uint64_t> digests;  ///< (comparable, count, fingerprint)
  simnet::NetworkStats net;
  Time max_cpu_backlog = 0;   ///< over servers
  Time max_link_backlog = 0;  ///< over links
  std::uint64_t snapshots_installed = 0;
  std::uint64_t max_committed_writes = 0;
  std::uint64_t max_progress = 0;

  std::vector<std::string> errors;
  TraceLedger trace;
};

/// A deployment built by the public pipeline, ready to run. Construction is
/// what setup_s times.
class Trial {
 public:
  Trial(const Workload& w, const Phases& ph, double rate, std::uint64_t seed,
        unsigned sim_threads, bool traced)
      : w_(w),
        ph_(ph),
        sim_threads_(sim_threads),
        traced_(traced),
        sim_(seed),
        cluster_(sharded_cluster(w.tc, sim_, sim_threads)),
        net_(sim_, cluster_.topo, w.tc.cpu),
        host_(net_) {
    runtime::Host& host = traced ? static_cast<runtime::Host&>(host_) : net_;
    service_ = make_service(w.tc, cluster_, host);
    const double window_s = static_cast<double>(ph.end - ph.begin) / kSecond;
    recorder_ = std::make_shared<SampleRecorder>(
        static_cast<std::size_t>(rate * window_s * 1.1) + 1'000);
    recorder_->set_window(ph.begin, ph.end);
    clients_ = attach_clients(w.tc, cluster_, host, recorder_, rate, seed,
                              ph.end);
    write_times_.reserve(static_cast<std::size_t>(
                             rate * w.tc.write_ratio * window_s * 1.1) +
                         1'000);

    if (w.faults) {
      const FaultTiming ft;
      AuditConfig ac;
      ac.ordered = w.tc.system != System::kEPaxos;
      auditor_ = std::make_unique<HistoryAuditor>(ac, service_->num_servers());
      auditor_->attach(*service_, clients_, sim_, ft.warmup,
                       ft.end_at + ft.drain);
      FaultScenario rolling;
      for (const FaultScenario& s :
           standard_scenarios(w.tc.groups, w.tc.per_group, ft))
        if (s.name == "rolling_crashes") rolling = s;
      arm_via_service(make_schedule(rolling, cluster_.servers), net_,
                      *service_, RecoverArming::kTolerateUnsupported);
    }
    if (traced) attach_proxies();

    // Write completion times inside the window (unavail_ms), chained after
    // whatever the audit plane installed. Client shards call this
    // concurrently under the PDES kernel, hence the mutex.
    for (auto& c : clients_) {
      auto inner = std::move(c->on_reply);
      c->on_reply = [this, inner = std::move(inner)](NodeId s,
                                                     const kv::Completion& d) {
        if (inner) inner(s, d);
        if (!d.is_write) return;
        const Time now = sim_.now();
        if (now < ph_.begin || now >= ph_.end) return;
        std::lock_guard<std::mutex> lock(write_times_mu_);
        write_times_.push_back(now);
      };
    }

    // attempted: OpenLoopClient::generated() read just before each window
    // edge. Clients tick on multiples of their tick and stamp a tick's
    // arrivals inside [tick, tick + period), so the difference counts
    // exactly the arrivals in [begin, end).
    sim_.at(ph.begin - 1, [this] { generated_begin_ = generated(); });
    sim_.at(ph.end - 1, [this] { generated_end_ = generated(); });
  }

  /// Runs to `stop` in kSlice steps, timing each step, and notes the events
  /// and messages at `timed`. Only a run to the deadline finalizes the
  /// audit and collects results.
  TrialResult run(Time stop, Time timed) {
    TrialResult r;
    const std::uint64_t a0 = heap_allocations();
    const std::uint64_t e0 = sim_.events_processed();
    for (Time t = 0; t < stop;) {
      t = std::min(stop, t + kSlice);
      const auto s0 = Clock::now();
      if (sim_threads_ > 1)
        sim_.run_parallel_until(t);
      else
        sim_.run_until(t);
      r.slice_walls.push_back(seconds_between(s0, Clock::now()));
      if (t == timed) {
        r.timed_events = sim_.events_processed() - e0;
        r.timed_messages = net_.stats().messages;
      }
    }
    if (stop < ph_.deadline) return r;
    if (auditor_) {
      const auto s0 = Clock::now();
      if (traced_)
        audited(ledger_, [&] { auditor_->finalize(sim_.now()); });
      else
        auditor_->finalize(sim_.now());
      r.slice_walls.push_back(seconds_between(s0, Clock::now()));
    }
    r.allocs = heap_allocations() - a0;
    r.events = sim_.events_processed() - e0;
    for (const double s : r.slice_walls) r.run_wall_s += s;
    collect(r);
    return r;
  }

 private:
  static simnet::Cluster sharded_cluster(const TrialConfig& tc,
                                         simnet::Simulator& sim,
                                         unsigned sim_threads) {
    simnet::Cluster c = build_cluster(tc);
    if (sim_threads > 1)
      sim.configure_shards(c.topo, simnet::make_shard_map(c.topo, sim_threads));
    return c;
  }

  std::uint64_t generated() const {
    std::uint64_t n = 0;
    for (const auto& c : clients_) n += c->generated();
    return n;
  }

  void attach_proxies() {
    std::map<NodeId, const core::CanopusNode*> canopus;
    if (auto* cs = dynamic_cast<CanopusService*>(service_.get()))
      for (std::size_t i = 0; i < cs->num_servers(); ++i)
        canopus[cs->server_node(i)] = &cs->node(i);
    for (const auto& [id, proc] : host_.attached) {
      const auto it = canopus.find(id);
      proxies_.push_back(std::make_unique<TimingProxy>(
          *proc, ledger_, it == canopus.end() ? nullptr : it->second));
      net_.attach(id, *proxies_.back());
    }
    ledger_.proxies = proxies_.size();
    if (!auditor_) return;
    // Audit plane time: the commit and reply hooks and finalize().
    auto commit = std::move(service_->on_commit);
    service_->on_commit = [this, commit = std::move(commit)](
                              std::size_t i, std::uint64_t u,
                              const std::vector<kv::Request>& batch) {
      audited(ledger_, [&] { commit(i, u, batch); });
    };
    for (auto& c : clients_) {
      auto reply = std::move(c->on_reply);
      c->on_reply = [this, reply = std::move(reply)](NodeId s,
                                                     const kv::Completion& d) {
        audited(ledger_, [&] { reply(s, d); });
      };
    }
  }

  void collect(TrialResult& r) {
    r.attempted = generated_end_ - generated_begin_;
    r.completed = recorder_->samples.size();
    r.completed_all = recorder_->completed_all;
    r.latency_sum = recorder_->latency_sum;
    r.samples = std::move(recorder_->samples);
    r.unavail = longest_gap(std::move(write_times_), ph_.begin, ph_.end);
    r.net = net_.stats();
    r.trace = ledger_;
    if (r.completed > r.attempted)
      r.errors.push_back("more in-window completions than arrivals");

    // Agreement per commit-count class: comparable servers with equal
    // counts must hold equal fingerprints.
    std::map<std::uint64_t, std::uint64_t> fp_by_count;
    const ConsensusService& svc = *service_;
    for (std::size_t i = 0; i < svc.num_servers(); ++i) {
      const bool comparable = svc.comparable(i);
      const std::uint64_t count = svc.committed_writes(i);
      const std::uint64_t fp = svc.commit_fingerprint(i);
      r.digests.insert(r.digests.end(), {comparable, count, fp});
      r.max_cpu_backlog =
          std::max(r.max_cpu_backlog, net_.max_cpu_backlog(svc.server_node(i)));
      r.snapshots_installed += svc.snapshots_installed(i);
      if (!comparable) continue;
      r.max_committed_writes = std::max(r.max_committed_writes, count);
      r.max_progress = std::max(r.max_progress, svc.progress(i));
      const auto [it, fresh] = fp_by_count.emplace(count, fp);
      if (!fresh && it->second != fp)
        r.errors.push_back("servers disagree on the digest at " +
                           std::to_string(count) + " committed writes");
    }
    for (simnet::LinkId l = 0; l < cluster_.topo.num_links(); ++l)
      r.max_link_backlog = std::max(r.max_link_backlog, net_.max_link_backlog(l));

    const std::uint64_t bound = retained_log_bound(w_.tc);
    for (std::size_t i = 0; i < svc.num_servers(); ++i)
      if (svc.up(i) && svc.log_entries_retained(i) > bound)
        r.errors.push_back("server " + std::to_string(i) + " retains " +
                           std::to_string(svc.log_entries_retained(i)) +
                           " log records, bound " + std::to_string(bound));
    if (auditor_ && auditor_->violation_count() > 0) {
      std::string detail = std::to_string(auditor_->violation_count()) +
                           " audit violation(s)";
      if (!auditor_->violations().empty())
        detail += ", first: " + auditor_->violations().front().detail;
      r.errors.push_back(detail);
    }
  }

  const Workload& w_;
  Phases ph_;
  unsigned sim_threads_;
  bool traced_;
  simnet::Simulator sim_;
  simnet::Cluster cluster_;
  simnet::Network net_;
  RecordingHost host_;
  std::unique_ptr<ConsensusService> service_;
  std::shared_ptr<SampleRecorder> recorder_;
  std::vector<std::unique_ptr<OpenLoopClient>> clients_;
  std::unique_ptr<HistoryAuditor> auditor_;
  std::vector<std::unique_ptr<TimingProxy>> proxies_;
  TraceLedger ledger_;
  std::mutex write_times_mu_;
  std::vector<Time> write_times_;
  std::uint64_t generated_begin_ = 0;
  std::uint64_t generated_end_ = 0;
};

/// Bit-identity of two runs of one trial: fingerprints, completions,
/// NetworkStats, and events up to `extra_events` (one per timing proxy).
std::string identity_diff(const TrialResult& a, const TrialResult& b,
                          std::uint64_t extra_events) {
  std::string diff;
  if (a.digests != b.digests) diff += " fingerprints";
  if (a.completed_all != b.completed_all || a.completed != b.completed ||
      a.attempted != b.attempted || a.latency_sum != b.latency_sum)
    diff += " completions";
  if (a.net.messages != b.net.messages || a.net.bytes != b.net.bytes ||
      a.net.dropped != b.net.dropped || a.net.duplicated != b.net.duplicated ||
      a.net.reordered != b.net.reordered)
    diff += " network-stats";
  if (b.events != a.events + extra_events) diff += " events";
  return diff;
}

/// On a shared virtual machine the wall time of identical work drifts by
/// tens of percent within seconds (README.md, "How a run measures"). So a
/// trial's wall time is taken over a prefix of it — simulated [0, timed) —
/// run kTimingRuns times from the same seed: the same work, slice for
/// slice. The timed wall is the sum over slices of each slice's fastest
/// run. The first run continues to the deadline and provides everything
/// else; the others must match it at the prefix boundary.
constexpr int kTimingRuns = 5;
/// Set-up-only constructions timed before each run; setup_s is the median
/// over these and the runs' own set-ups.
constexpr int kSetupOnly = 8;

TrialResult measure_trial(const Workload& w, const Phases& ph, double rate,
                          std::uint64_t seed, unsigned sim_threads,
                          bool traced, Time timed,
                          std::vector<double>& setups) {
  const auto run_once = [&](Time stop) {
    for (int i = 0; i < kSetupOnly; ++i) {
      const auto t0 = Clock::now();
      Trial t(w, ph, rate, seed, sim_threads, traced);
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    const auto t0 = Clock::now();
    Trial trial(w, ph, rate, seed, sim_threads, traced);
    setups.push_back(seconds_between(t0, Clock::now()));
    return trial.run(stop, timed);
  };
  timed = std::min(timed, ph.deadline) / kSlice * kSlice;
  TrialResult first = run_once(ph.deadline);
  if (timed <= 0) return first;
  const auto slices = static_cast<std::size_t>(timed / kSlice);
  std::vector<double> fastest(first.slice_walls.begin(),
                              first.slice_walls.begin() + slices);
  for (int k = 1; k < kTimingRuns; ++k) {
    const TrialResult r = run_once(timed);
    if (r.timed_events != first.timed_events ||
        r.timed_messages != first.timed_messages) {
      first.errors.push_back("repeated runs of one trial differ");
      break;
    }
    for (std::size_t i = 0; i < slices; ++i)
      fastest[i] = std::min(fastest[i], r.slice_walls[i]);
  }
  for (const double f : fastest) first.timed_wall_s += f;
  return first;
}

// --------------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Nearest-rank percentile position (1-based) of p among n sorted samples.
std::size_t rank_of(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n);
}

double percentile_ms(const std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  return static_cast<double>(sorted[rank_of(sorted.size(), p) - 1]) /
         kMillisecond;
}

std::vector<Metric> end_to_end(const TrialResult& lo, const TrialResult& hi,
                               const Phases& ph,
                               const std::vector<double>& setups) {
  const double wall = hi.timed_wall_s;
  const double attempted = static_cast<double>(lo.attempted + hi.attempted);
  const double completed = static_cast<double>(lo.completed + hi.completed);
  const double window_s = static_cast<double>(ph.end - ph.begin) / kSecond;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"lo.p50_ms", percentile_ms(lo.samples, 0.50), "ms"},
      {"lo.p99_ms", percentile_ms(lo.samples, 0.99), "ms"},
      {"hi.p50_ms", percentile_ms(hi.samples, 0.50), "ms"},
      {"hi.p99_ms", percentile_ms(hi.samples, 0.99), "ms"},
      {"hi.p999_ms", percentile_ms(hi.samples, 0.999), "ms"},
      {"hi.goodput_req_s", static_cast<double>(hi.completed) / window_s,
       "req/s"},
      {"completed_frac", ratio(completed, attempted), "frac"},
      {"unavail_ms", ms(std::max(lo.unavail, hi.unavail)), "ms"},
      {"wall_s", wall, "s"},
      {"setup_s", median(setups), "s"},
      {"events_per_s", ratio(static_cast<double>(hi.timed_events), wall),
       "events/s"},
      {"allocs_per_op", ratio(static_cast<double>(lo.allocs + hi.allocs),
                              static_cast<double>(lo.completed_all +
                                                  hi.completed_all)),
       "allocs/op"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
  };
}

/// Per-layer metrics of the traced trials' full runs (the runs their
/// ledgers describe). `overhead` compares the traced and untraced timed
/// walls, `pdes_speedup` the serial and sharded ones (0 where the workload
/// runs serially). Cycle ratios are 0 for systems without Canopus cycles.
std::vector<Metric> per_layer(const std::vector<TrialResult>& traced,
                              double overhead, double pdes_speedup,
                              bool canopus) {
  TraceLedger l;
  double wall = 0, events = 0, allocs = 0, ops = 0;
  double msgs = 0, bytes = 0, dropped = 0;
  double writes = 0, cycles = 0, snapshots = 0;
  Time cpu_backlog = 0, link_backlog = 0;
  for (const TrialResult& t : traced) {
    for (int i = 0; i < kLayers; ++i) {
      l.layer[i].msgs += t.trace.layer[i].msgs;
      l.layer[i].ns += t.trace.layer[i].ns;
      l.layer[i].allocs += t.trace.layer[i].allocs;
    }
    l.proposal_requests += t.trace.proposal_requests;
    l.client_reqs += t.trace.client_reqs;
    l.early_reqs += t.trace.early_reqs;
    l.replies += t.trace.replies;
    l.reqs_dropped_joining += t.trace.reqs_dropped_joining;
    l.audit_ns += t.trace.audit_ns;
    l.audit_allocs += t.trace.audit_allocs;
    wall += t.run_wall_s;
    events += static_cast<double>(t.events);
    allocs += static_cast<double>(t.allocs);
    ops += static_cast<double>(t.completed_all);
    msgs += static_cast<double>(t.net.messages);
    bytes += static_cast<double>(t.net.bytes);
    dropped += static_cast<double>(t.net.dropped);
    writes += static_cast<double>(t.max_committed_writes);
    if (canopus) cycles += static_cast<double>(t.max_progress);
    snapshots += static_cast<double>(t.snapshots_installed);
    cpu_backlog = std::max(cpu_backlog, t.max_cpu_backlog);
    link_backlog = std::max(link_backlog, t.max_link_backlog);
  }
  const double wall_ns = wall * 1e9;
  double handler_ns = 0, handler_allocs = 0;
  for (const LayerCost& c : l.layer) {
    handler_ns += static_cast<double>(c.ns);
    handler_allocs += static_cast<double>(c.allocs);
  }
  const double audit_ns = static_cast<double>(l.audit_ns);
  const double simnet_ns = wall_ns - handler_ns - audit_ns;
  const double simnet_allocs =
      allocs - handler_allocs - static_cast<double>(l.audit_allocs);

  std::vector<Metric> out = {
      {"simnet.events_per_op", ratio(events, ops), "events/op"},
      {"simnet.msgs_per_op", ratio(msgs, ops), "msgs/op"},
      {"simnet.bytes_per_op", ratio(bytes, ops), "B/op"},
      {"simnet.self_ns_per_event", ratio(simnet_ns, events), "ns/event"},
      {"simnet.allocs_per_event", ratio(simnet_allocs, events), "allocs/event"},
      {"simnet.max_link_backlog_ms", ms(link_backlog), "ms"},
      {"simnet.max_cpu_backlog_ms", ms(cpu_backlog), "ms"},
      {"simnet.pdes_speedup", pdes_speedup, "x"},
      {"simnet.dropped_per_op", ratio(dropped, ops), "msgs/op"},
  };
  const std::pair<const char*, Layer> protocol_layers[] = {
      {"rbcast", kRbcast}, {"canopus", kCanopusLayer}, {"epaxos", kEpaxosLayer}};
  for (const auto& [name, layer] : protocol_layers) {
    const LayerCost& c = l.layer[layer];
    const double m = static_cast<double>(c.msgs);
    const std::string p = name;
    out.push_back({p + ".msgs_per_op", ratio(m, ops), "msgs/op"});
    out.push_back({p + ".ns_per_msg", ratio(static_cast<double>(c.ns), m), "ns/msg"});
    out.push_back({p + ".allocs_per_msg",
                   ratio(static_cast<double>(c.allocs), m), "allocs/msg"});
    out.push_back({p + ".share", ratio(static_cast<double>(c.ns), wall_ns), "frac"});
  }
  out.push_back({"canopus.writes_per_cycle", ratio(writes, cycles), "writes/cycle"});
  out.push_back({"canopus.fetches_per_cycle",
                 ratio(static_cast<double>(l.proposal_requests), cycles),
                 "fetches/cycle"});
  out.push_back({"canopus.snapshots_installed", snapshots, "count"});
  out.push_back({"canopus.reqs_dropped_joining",
                 static_cast<double>(l.reqs_dropped_joining), "count"});
  const LayerCost& kv = l.layer[kKv];
  const LayerCost& client = l.layer[kWorkload];
  const double reqs = static_cast<double>(l.client_reqs);
  const double replies = static_cast<double>(l.replies);
  out.push_back({"kv.ns_per_req", ratio(static_cast<double>(kv.ns), reqs), "ns/req"});
  out.push_back({"kv.allocs_per_req", ratio(static_cast<double>(kv.allocs), reqs),
                 "allocs/req"});
  out.push_back({"workload.client_ns_per_reply",
                 ratio(static_cast<double>(client.ns), replies), "ns/reply"});
  out.push_back({"workload.early_send_frac",
                 ratio(static_cast<double>(l.early_reqs), reqs), "frac"});
  out.push_back({"workload.audit_share", ratio(audit_ns, wall_ns), "frac"});
  out.push_back({"workload.audit_ns_per_op", ratio(audit_ns, ops), "ns/op"});
  out.push_back({"trace.overhead_frac", overhead, "frac"});
  return out;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("  %-30s %20.6f %s\n", m.name.c_str(), m.value, m.unit);
}

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20)
      std::fprintf(f, "\\u%04x", c);
    else
      std::fputc(c, f);
  }
  std::fputc('"', f);
}

void json_metrics(std::FILE* f, const std::vector<Metric>& metrics) {
  std::fputc('{', f);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    json_string(f, metrics[i].name);
    std::fprintf(f, ":{\"value\":%.17g,\"unit\":", metrics[i].value);
    json_string(f, metrics[i].unit);
    std::fputc('}', f);
  }
  std::fputc('}', f);
}

struct Report {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t lo_samples = 0;
  std::size_t hi_samples = 0;
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< empty unless traced
};

bool write_json(const std::string& path, const Report& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"workload\":", f);
  json_string(f, r.workload->name);
  std::fprintf(f,
               ",\"seed\":%llu,\"correct\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,\"samples\":{\"lo\":%zu,\"hi\":%zu}",
               static_cast<unsigned long long>(r.seed),
               r.errors.empty() ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed), r.lo_samples,
               r.hi_samples);
  std::fputs(",\"errors\":[", f);
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    json_string(f, r.errors[i]);
  }
  std::fputs("],\"end_to_end\":", f);
  json_metrics(f, r.end_to_end);
  std::fputs(",\"per_layer\":", f);
  json_metrics(f, r.per_layer);
  std::fputs("}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

std::string flag_value(int argc, char** argv, const char* prefix,
                       std::string fallback) {
  const std::size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  return fallback;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: canopus_e2e --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace] [--json=PATH]\nworkloads:",
               why.c_str());
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

/// Runs the workload's two rates and fills the report.
Report run_workload(const Workload& w, std::uint64_t seed, double seconds,
                    bool trace) {
  Report rep;
  rep.workload = &w;
  rep.seed = seed;
  const Phases ph = phases_of(w, seconds);
  std::printf("canopus_e2e  workload %s  seed %llu  %s\n", w.name,
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced");
  std::printf("  window [%.0f, %.0f) ms, drain to %.0f ms, %u sim thread(s)\n",
              ms(ph.begin), ms(ph.end), ms(ph.deadline), w.sim_threads);

  std::vector<double> setups, unused;
  std::vector<TrialResult> plain, traced;
  double overhead = 0, pdes_speedup = 0;
  for (const double rate : {w.lo, w.hi}) {
    const std::uint64_t s = trial_seed(w, seed, rate);
    const Time timed = rate == w.hi ? w.timed : 0;
    TrialResult p =
        measure_trial(w, ph, rate, s, w.sim_threads, false, timed, setups);
    std::printf("  %9.0f req/s: %.2f s wall, %llu events, %llu allocs\n", rate,
                p.run_wall_s, static_cast<unsigned long long>(p.events),
                static_cast<unsigned long long>(p.allocs));
    if (trace) {
      // The identity gates, and the timed walls of serial and traced runs.
      TrialResult sharded_serial;
      const TrialResult* serial = &p;
      if (w.sim_threads > 1) {
        sharded_serial = measure_trial(w, ph, rate, s, 1, false, timed, unused);
        const std::string diff = identity_diff(sharded_serial, p, 0);
        if (!diff.empty())
          rep.errors.push_back("sharded run differs from the serial run in:" +
                               diff);
        serial = &sharded_serial;
        pdes_speedup = ratio(serial->timed_wall_s, p.timed_wall_s);
      }
      TrialResult t = measure_trial(w, ph, rate, s, 1, true, timed, unused);
      const std::string diff = identity_diff(*serial, t, t.trace.proxies);
      if (!diff.empty())
        rep.errors.push_back("traced run differs from the plain run in:" + diff);
      rep.errors.insert(rep.errors.end(), t.errors.begin(), t.errors.end());
      if (timed > 0)
        overhead = ratio(t.timed_wall_s - serial->timed_wall_s,
                         serial->timed_wall_s);
      t.samples = {};
      traced.push_back(std::move(t));
    }
    rep.errors.insert(rep.errors.end(), p.errors.begin(), p.errors.end());
    std::sort(p.samples.begin(), p.samples.end());
    plain.push_back(std::move(p));
  }
  const TrialResult& lo = plain[0];
  const TrialResult& hi = plain[1];
  for (const TrialResult* r : {&lo, &hi}) {
    const std::size_t n = r->samples.size();
    if (n == 0 || n - rank_of(n, 0.999) < 10)
      rep.errors.push_back("fewer than 10 latency samples beyond p999 (" +
                           std::to_string(n) + " samples)");
  }
  rep.attempted = lo.attempted + hi.attempted;
  rep.failed = rep.attempted - std::min(rep.attempted, lo.completed + hi.completed);
  rep.lo_samples = lo.samples.size();
  rep.hi_samples = hi.samples.size();
  rep.end_to_end = end_to_end(lo, hi, ph, setups);
  if (trace)
    rep.per_layer = per_layer(traced, overhead, pdes_speedup,
                              w.tc.system == System::kCanopus);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = flag_value(argc, argv, "--workload=", "");
  const std::string json = flag_value(argc, argv, "--json=", "");
  char* end = nullptr;
  const std::string seed_arg = flag_value(argc, argv, "--seed=", "1");
  const std::uint64_t seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (seed_arg.empty() || *end != '\0') return usage("--seed must be an integer");
  const std::string seconds_arg = flag_value(argc, argv, "--seconds=", "20");
  const double seconds = std::strtod(seconds_arg.c_str(), &end);
  if (*end != '\0' || !(seconds > 0 && seconds <= 600))
    return usage("--seconds must be in (0, 600]");
  bool trace = false;
  for (int i = 1; i < argc; ++i) trace |= std::strcmp(argv[i], "--trace") == 0;

  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  if (it == all.end()) return usage("unknown workload '" + name + "'");

  const Report rep = run_workload(*it, seed, seconds, trace);
  std::printf("\nend-to-end (%zu lo / %zu hi latency samples; %llu attempted, "
              "%llu failed):\n",
              rep.lo_samples, rep.hi_samples,
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  print_metrics(rep.end_to_end);
  if (trace) {
    std::printf("\nper-layer (traced, serial):\n");
    print_metrics(rep.per_layer);
  }
  for (const std::string& e : rep.errors)
    std::printf("INCORRECT: %s\n", e.c_str());
  std::printf("%s\n", rep.errors.empty() ? "correct" : "INCORRECT");

  if (!json.empty() && !write_json(json, rep)) {
    std::fprintf(stderr, "error: cannot write %s\n", json.c_str());
    return 1;
  }
  return rep.errors.empty() ? 0 : 1;
}
