// The scripted-command harness that cross-validates the two backends
// (run_trial's threaded backend lives beside it in threaded_trial.cpp).
//
// The scripted harness is the PR's correctness anchor (DESIGN.md §12): a
// fixed, seed-derived write script is driven into server 0 of a fresh
// deployment on each backend, and the per-server commit fingerprints must
// come out identical — kv::CommitDigest (ordered hash chain) for
// Canopus/Raft/Zab, kv::SetDigest (order-free) for EPaxos. The digests
// fold only (client, seq, key, value), never timestamps, so wall-clock
// batching differences between backends cannot leak in; with a single
// submitting server, every ordered system commits in submission order on
// both backends.
#pragma once

#include <cstdint>
#include <vector>

#include "workload/deployments.h"

namespace canopus::workload {

/// Outcome of one scripted run on one backend.
struct ScriptResult {
  std::vector<std::uint64_t> fingerprint;  ///< per server
  std::vector<std::uint64_t> committed;    ///< per server committed writes
  bool completed = false;  ///< every server committed the whole script
  double wall_seconds = 0;
  std::uint64_t messages = 0;  ///< backend messages delivered
  Time commit_p50 = -1;  ///< submit->commit latency at server 0 (threads)
  Time commit_p99 = -1;
};

/// The deterministic command script: `k` writes, keys/values drawn from a
/// seed-derived stream, client id kInvalidNode (local submission — the
/// protocols suppress client replies for it).
std::vector<kv::Request> make_script(const TrialConfig& tc, std::size_t k);

/// Drives the script through the simulated backend (submissions at t=1ms,
/// then runs until `sim_deadline` simulated ns).
ScriptResult run_script_sim(const TrialConfig& tc, std::size_t k,
                            Time sim_deadline = 20 * kSecond);

/// Drives the script through runtime::ThreadedRuntime. `submit_gap` > 0
/// paces submissions (for latency measurement); 0 blasts them. Waits until
/// every server committed the script or `wall_deadline` wall-clock ns.
ScriptResult run_script_threads(const TrialConfig& tc, std::size_t k,
                                Time wall_deadline = 30 * kSecond,
                                Time submit_gap = 0);

}  // namespace canopus::workload
