#include "runtime/threaded_trial.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "runtime/threaded.h"
#include "workload/trial.h"

namespace canopus::workload {

namespace {

void sleep_ns(Time ns) {
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace

TrialReport run_trial_on_threads(const Trial& t) {
  if (t.faults || t.audit)
    throw std::invalid_argument(
        "run_trial: fault schedules and the auditor need the simulated "
        "backend");
  const TrialConfig& tc = t.tc;
  simnet::Cluster cluster = build_cluster(tc);
  runtime::ThreadedRuntime rt(cluster.topo.num_nodes(), t.seed);
  auto recorder = std::make_shared<LatencyRecorder>();
  recorder->set_window(tc.warmup, tc.warmup + tc.measure);
  detail::Deployment d(t, cluster, rt, recorder, tc.warmup + tc.measure);

  rt.start();
  // warmup/measure/drain are wall-clock here; the driver just waits them
  // out while the node threads run.
  const Time deadline = tc.warmup + tc.measure + tc.drain;
  while (rt.now() < deadline) sleep_ns(std::min<Time>(deadline - rt.now(), kMillisecond));
  rt.stop();  // join = happens-before: protocol state is safe to read now

  TrialReport r;
  r.steady = measure(*recorder, t.rate);
  d.report(tc, r);
  return r;
}

std::vector<kv::Request> make_script(const TrialConfig& tc, std::size_t k) {
  Rng rng(derive_seed(tc.seed, 0x5c819 /* "script" */));
  std::vector<kv::Request> script;
  script.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    kv::Request r;
    r.id = {kInvalidNode, i + 1};  // local submission: no client replies
    r.is_write = true;
    r.key = rng.below(1024);  // small keyspace: EPaxos sees real conflicts
    r.value = rng();
    script.push_back(r);
  }
  return script;
}

ScriptResult run_script_sim(const TrialConfig& tc, std::size_t k,
                            Time sim_deadline) {
  simnet::Simulator sim(tc.seed);
  simnet::Cluster cluster = build_cluster(tc);
  simnet::Network net(sim, cluster.topo, tc.cpu);
  std::unique_ptr<ConsensusService> service = make_service(tc, cluster, net);

  const std::vector<kv::Request> script = make_script(tc, k);
  ConsensusService* svc = service.get();
  const std::vector<kv::Request>* sp = &script;
  // Submit after the nodes' on_start events (t=0) have run.
  sim.at(kMillisecond, [svc, sp] {
    for (const kv::Request& r : *sp) svc->submit(0, r);
  });

  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(sim_deadline);
  ScriptResult out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.messages = net.stats().messages;
  out.completed = true;
  for (std::size_t i = 0; i < service->num_servers(); ++i) {
    out.fingerprint.push_back(service->commit_fingerprint(i));
    out.committed.push_back(service->committed_writes(i));
    if (out.committed.back() < k) out.completed = false;
  }
  return out;
}

ScriptResult run_script_threads(const TrialConfig& tc, std::size_t k,
                                Time wall_deadline, Time submit_gap) {
  simnet::Cluster cluster = build_cluster(tc);
  runtime::ThreadedRuntime rt(cluster.topo.num_nodes(), tc.seed);
  std::unique_ptr<ConsensusService> service = make_service(tc, cluster, rt);

  const std::size_t n = service->num_servers();
  std::vector<std::atomic<std::uint64_t>> committed(n);

  // Commit-latency capture at server 0: submit stamps Request::arrival
  // (measurement-only — never folded into the digests), the commit hook
  // reads the wall clock again. Cold path; a mutex is fine.
  std::mutex lat_mu;
  std::vector<Time> latencies;
  latencies.reserve(k);

  service->on_commit = [&](std::size_t i, std::uint64_t,
                           const std::vector<kv::Request>& batch) {
    committed[i].fetch_add(batch.size(), std::memory_order_relaxed);
    if (i == 0) {
      const Time now = rt.now();
      std::lock_guard<std::mutex> lock(lat_mu);
      for (const kv::Request& r : batch)
        if (r.arrival > 0) latencies.push_back(now - r.arrival);
    }
  };

  const std::vector<kv::Request> script = make_script(tc, k);
  const auto t0 = std::chrono::steady_clock::now();
  rt.start();
  for (kv::Request r : script) {
    r.arrival = rt.now();
    service->submit(0, r);
    if (submit_gap > 0) sleep_ns(submit_gap);
  }

  // Wait for every server to commit the whole script (or the deadline).
  const auto all_done = [&] {
    for (std::size_t i = 0; i < n; ++i)
      if (committed[i].load(std::memory_order_relaxed) < k) return false;
    return true;
  };
  while (!all_done() && rt.now() < wall_deadline) sleep_ns(200'000);
  rt.stop();  // join = happens-before: protocol state is safe to read now

  ScriptResult out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.messages = rt.total_stats().delivered;
  out.completed = true;
  for (std::size_t i = 0; i < n; ++i) {
    out.fingerprint.push_back(service->commit_fingerprint(i));
    out.committed.push_back(service->committed_writes(i));
    if (out.committed.back() < k) out.completed = false;
  }
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    out.commit_p50 = latencies[latencies.size() / 2];
    out.commit_p99 = latencies[latencies.size() * 99 / 100];
  }
  return out;
}

}  // namespace canopus::workload
