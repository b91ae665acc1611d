// Threaded-runtime bench (DESIGN.md §12): wall-clock behaviour of the
// real-thread backend.
//
// Four planes:
//  1. Mailbox fabric: all-to-all echo traffic over the SPSC mailboxes at
//     several node counts — messages/second through the rings.
//  2. Zero-steady-state-alloc gate: the 2-node echo plane re-run with the
//     global operator-new counter sampled around the steady window; any
//     allocation per message fails the bench (exit nonzero), the threaded
//     analogue of the simulator's allocs/event ~ 0 discipline (PR 4).
//  3. Calibration: a single node echoing to itself with payloads of
//     increasing size, every byte touched once per hop. A linear fit of
//     ns/hop over payload bytes recovers the fixed per-message cost and the
//     per-byte cost on THIS hardware — the measured counterpart of the
//     simulator's CpuModel {send_fixed, recv_fixed, ns_per_byte}; see
//     EXPERIMENTS.md ("Calibrating the cost model against real threads").
//  4. Protocols: the scripted five-node deployment of each system on real
//     threads — submit->commit latency percentiles and message counts.
//
// Usage: bench_runtime [--full] [--json=PATH]   (quick mode by default)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "runtime/threaded.h"
#include "runtime/threaded_trial.h"
#include "simnet/payload_testing.h"

namespace canopus::bench {
namespace {

using runtime::ThreadedRuntime;
using simnet::Message;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Echoes every message straight back to its sender, touching each payload
// byte once (the "deserialization" the calibration plane measures).
class EchoProc : public simnet::Process {
 public:
  void on_message(const Message& m) override {
    if (const std::string* s = m.as<std::string>()) {
      unsigned sum = 0;
      for (const char c : *s) sum += static_cast<unsigned char>(c);
      sink_ += sum;
    }
    send(m.src(), m.payload());
  }

  // Seeds the rally from inside the node's execution context (via post()).
  void kick(NodeId dst, const simnet::Payload& p) { send(dst, p); }

 private:
  std::uint64_t sink_ = 0;  // keeps the byte loop observable
};

struct EchoRun {
  double msgs_per_s = 0;
  std::uint64_t window_msgs = 0;
  std::uint64_t window_allocs = 0;
};

/// All-to-all echo over `n` nodes for `window_ms` after `warmup_ms`;
/// `payload_bytes` > 0 switches the int payload for a string of that size.
EchoRun run_echo_plane(int n, int warmup_ms, int window_ms,
                       std::size_t payload_bytes) {
  ThreadedRuntime rt(static_cast<std::size_t>(n), /*seed=*/1);
  std::vector<std::unique_ptr<EchoProc>> procs;
  for (int i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<EchoProc>());
    rt.attach(static_cast<NodeId>(i), *procs.back());
  }
  rt.start();

  // One payload allocation total; every hop shares it by refcount.
  const simnet::Payload payload =
      payload_bytes > 0
          ? simnet::Payload::sized(std::string(payload_bytes, 'x'),
                                   payload_bytes)
          : simnet::Payload::sized(1, 16);
  // Seed one in-flight message per directed pair (self-pair when n == 1).
  for (int i = 0; i < n; ++i) {
    EchoProc* p = procs[static_cast<std::size_t>(i)].get();
    for (int d = 0; d < n; ++d) {
      if (n > 1 && d == i) continue;
      const NodeId dst = static_cast<NodeId>(d);
      rt.post(static_cast<NodeId>(i),
              [p, dst, payload] { p->kick(dst, payload); });
    }
  }

  sleep_ms(warmup_ms);
  const std::uint64_t msgs0 = rt.total_stats().delivered;
  const std::uint64_t allocs0 = heap_allocations();
  sleep_ms(window_ms);
  const std::uint64_t msgs1 = rt.total_stats().delivered;
  const std::uint64_t allocs1 = heap_allocations();
  rt.stop();

  EchoRun out;
  out.window_msgs = msgs1 - msgs0;
  out.window_allocs = allocs1 - allocs0;
  out.msgs_per_s =
      static_cast<double>(out.window_msgs) / (window_ms / 1e3);
  return out;
}

}  // namespace
}  // namespace canopus::bench

int main(int argc, char** argv) {
  using namespace canopus;
  using namespace canopus::bench;

  Harness h(argc, argv, "runtime",
            "Threaded runtime: real-thread execution over SPSC mailboxes",
            "DESIGN.md Sec 12 (runtime seam; not a paper figure)");

  const int warmup_ms = h.full() ? 300 : 150;
  const int window_ms = h.full() ? 1500 : 400;

  // --- plane 1: mailbox fabric throughput vs node count -------------------
  std::printf("\n-- mailbox fabric: all-to-all echo --\n");
  std::vector<int> node_counts = h.full() ? std::vector<int>{2, 4, 8, 12}
                                          : std::vector<int>{2, 4, 8};
  for (const int n : node_counts) {
    const EchoRun r = run_echo_plane(n, warmup_ms, window_ms, 0);
    std::printf("  n=%-3d  %10.0f msgs/s  (%llu in window)\n", n, r.msgs_per_s,
                static_cast<unsigned long long>(r.window_msgs));
    h.add_series("mailbox/n=" + std::to_string(n))
        .attr("plane", "mailbox")
        .scalar("nodes", n)
        .scalar("msgs_per_s", r.msgs_per_s);
  }

  // --- plane 2: zero-steady-state-alloc gate ------------------------------
  std::printf("\n-- steady-state allocation gate (2-node echo) --\n");
  const EchoRun gate = run_echo_plane(2, warmup_ms, window_ms, 0);
  const double allocs_per_msg =
      gate.window_msgs > 0 ? static_cast<double>(gate.window_allocs) /
                                 static_cast<double>(gate.window_msgs)
                           : 0.0;
  std::printf("  %llu allocs over %llu msgs  (%.6f allocs/msg)\n",
              static_cast<unsigned long long>(gate.window_allocs),
              static_cast<unsigned long long>(gate.window_msgs),
              allocs_per_msg);
  h.add_scalar("steady_window_msgs", static_cast<double>(gate.window_msgs));
  h.add_scalar("steady_window_allocs",
               static_cast<double>(gate.window_allocs));
  h.add_scalar("steady_allocs_per_msg", allocs_per_msg);

  // --- plane 3: payload-size calibration ----------------------------------
  std::printf("\n-- calibration: self-echo ns/hop vs payload bytes --\n");
  std::vector<std::size_t> sizes = h.full()
                                       ? std::vector<std::size_t>{16, 64, 256,
                                                                  1024, 4096,
                                                                  16384}
                                       : std::vector<std::size_t>{16, 1024,
                                                                  4096};
  std::vector<double> xs, ys;
  for (const std::size_t b : sizes) {
    const EchoRun r = run_echo_plane(1, warmup_ms, window_ms, b);
    const double ns_per_hop =
        r.window_msgs > 0 ? window_ms * 1e6 / static_cast<double>(r.window_msgs)
                          : 0.0;
    std::printf("  %6zu B  %10.1f ns/hop  (%llu hops)\n", b, ns_per_hop,
                static_cast<unsigned long long>(r.window_msgs));
    h.add_series("calibration/bytes=" + std::to_string(b))
        .attr("plane", "calibration")
        .scalar("payload_bytes", static_cast<double>(b))
        .scalar("ns_per_hop", ns_per_hop)
        .scalar("hops", static_cast<double>(r.window_msgs));
    if (r.window_msgs > 0) {
      xs.push_back(static_cast<double>(b));
      ys.push_back(ns_per_hop);
    }
  }
  // Least-squares line ns_per_hop = fixed + slope * bytes. One hop is one
  // send plus one receive of the payload with each byte touched once, so
  // `fixed` plays the simulator's send_fixed + recv_fixed and `slope` its
  // per-byte cost for the one direction that touches bytes.
  double fixed = 0, slope = 0;
  if (xs.size() >= 2) {
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sx += xs[i];
      sy += ys[i];
      sxx += xs[i] * xs[i];
      sxy += xs[i] * ys[i];
    }
    const double m = static_cast<double>(xs.size());
    const double den = m * sxx - sx * sx;
    slope = den != 0 ? (m * sxy - sx * sy) / den : 0;
    fixed = (sy - slope * sx) / m;
  }
  std::printf("  fit: ns/hop = %.1f + %.4f * bytes\n", fixed, slope);
  h.add_scalar("calibrated_hop_fixed_ns", fixed);
  h.add_scalar("calibrated_ns_per_byte", slope);
  h.add_scalar("sim_default_ns_per_byte", 2.5);
  h.add_scalar("sim_default_hop_fixed_ns", 4000);  // send_fixed + recv_fixed

  // --- plane 4: protocols on real threads ---------------------------------
  std::printf("\n-- protocols: scripted 5-node deployment on threads --\n");
  const std::size_t k = h.full() ? 300 : 80;
  const Time gap = h.full() ? kMillisecond : 2 * kMillisecond;
  for (const workload::System sys : workload::kAllSystems) {
    workload::TrialConfig tc;
    tc.system = sys;
    tc.groups = 1;
    tc.per_group = 5;
    tc.client_machines = 0;
    tc.seed = 1;
    const workload::ScriptResult r =
        workload::run_script_threads(tc, k, /*wall_deadline=*/30 * kSecond,
                                     /*submit_gap=*/gap);
    const std::uint64_t committed =
        *std::min_element(r.committed.begin(), r.committed.end());
    std::printf(
        "  %-10s committed %llu/%zu  p50 %8.3f ms  p99 %8.3f ms  "
        "%llu msgs  %.2f s\n",
        workload::system_name(sys),
        static_cast<unsigned long long>(committed), k, ms(r.commit_p50),
        ms(r.commit_p99), static_cast<unsigned long long>(r.messages),
        r.wall_seconds);
    if (!r.completed)
      std::printf("  WARNING: %s did not commit the full script in time\n",
                  workload::system_name(sys));
    h.add_series(std::string("protocol/") + workload::system_name(sys))
        .attr("plane", "protocol")
        .attr("system", workload::system_name(sys))
        .scalar("script_k", static_cast<double>(k))
        .scalar("committed_min", static_cast<double>(committed))
        .scalar("completed", r.completed ? 1 : 0)
        .scalar("commit_p50_ns", static_cast<double>(r.commit_p50))
        .scalar("commit_p99_ns", static_cast<double>(r.commit_p99))
        .scalar("messages", static_cast<double>(r.messages))
        .scalar("wall_seconds", r.wall_seconds);
  }

  int rc = h.finish();
  if (gate.window_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations in the steady echo window "
                 "(zero-steady-state-alloc gate)\n",
                 static_cast<unsigned long long>(gate.window_allocs));
    rc = 1;
  }
  return rc;
}
