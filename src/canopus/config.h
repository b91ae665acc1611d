// Tunables for a Canopus deployment.
#pragma once

#include <cstddef>
#include <map>
#include <memory>

#include "common/types.h"
#include "rbcast/switch_broadcast.h"

namespace canopus::core {

/// Per-deployment registry of virtual ToR sequencers (one per super-leaf)
/// for the hardware-assisted broadcast substrate. All nodes of a deployment
/// must share one registry, and no two deployments may: concurrent trials
/// would stamp frames from one unsynchronized counter, and each super-leaf
/// would wait forever on sequence numbers another trial consumed.
/// CanopusService installs a fresh registry per deployment; a harness that
/// builds its own nodes shares one by copying one Config value to them.
struct SequencerRegistry {
  std::shared_ptr<rbcast::SequencerState> get(int super_leaf) {
    auto& s = switches_[super_leaf];
    if (!s) s = std::make_shared<rbcast::SequencerState>();
    return s;
  }

 private:
  std::map<int, std::shared_ptr<rbcast::SequencerState>> switches_;
};

/// Which §4.3 broadcast substrate a super-leaf runs on.
enum class BroadcastKind {
  kRaft,    ///< software: one Raft group per member (the prototype's mode)
  kSwitch,  ///< hardware-assisted atomic broadcast in the ToR switch
};

// --- protocol CPU costs (see EXPERIMENTS.md calibration) -----------------
/// Per-write protocol work (merge/sort/commit bookkeeping) charged to the
/// node CPU at merge and commit time. Together with the per-byte network
/// CPU this puts the per-node cost of a globally ordered write at ~1 us,
/// the value implied by the paper's Figure 4(a) saturation points.
inline constexpr Time kCpuPerWrite = 150;
/// Per-read service work charged when a read is answered (the KV service
/// path: lookup, linearization bookkeeping, reply marshalling). Calibrated
/// against the paper's 9-to-27-node scaling; see EXPERIMENTS.md.
inline constexpr Time kCpuPerRead = 5'000;

/// Bound on in-flight cycles under pipelining (§7.1; commit remains
/// strictly cycle-ordered). Must exceed (widest RTT) / cycle_interval —
/// 322 ms / 5 ms = 65 for the Table 1 WAN — or the window throttles the
/// pipeline into stop-and-go.
inline constexpr std::size_t kMaxOutstandingCycles = 256;

struct Config {
  /// Reliable-broadcast substrate within a super-leaf (§4.3).
  BroadcastKind broadcast = BroadcastKind::kRaft;
  std::shared_ptr<SequencerRegistry> sequencers =
      std::make_shared<SequencerRegistry>();

  /// Number of super-leaf representatives k (§4.5). Each representative
  /// fetches the vnode states assigned to it by the modulo rule.
  int representatives = 2;

  /// How many representatives redundantly fetch each vnode state (<= k).
  /// Figure 2's example shows 2 (nodes A and C both fetch vnode y); the
  /// paper's load-balancing recommendation (§4.5, different representatives
  /// fetch different vnodes) corresponds to 1, the default — failures are
  /// covered by the retry-another-emulator fallback either way.
  int redundant_fetch = 1;

  /// Retry timeout for a proposal-request before trying another emulator.
  /// Must exceed the widest RTT in the deployment (Table 1 tops out at
  /// 322 ms SY-FF).
  Time fetch_timeout = 500 * kMillisecond;

  // --- pipelining (§7.1) ------------------------------------------------
  bool pipelining = false;
  /// Upper bound between consecutive cycle starts while work is in flight
  /// ("each node starts a new consensus cycle every 5 ms...").
  Time cycle_interval = 5 * kMillisecond;
  /// "...or after 1000 requests have accumulated, whichever happens first."
  std::size_t max_batch = 1'000;

  /// Committed cycles prune_history keeps, so that straggling super-leaves
  /// can still fetch this node's vnode states: 64, or under pipelining
  /// twice the pipelining depth, which covers the rejoin catch-up span.
  CycleId kept_cycles() const {
    return pipelining ? 2 * kMaxOutstandingCycles : 64;
  }

  // --- write leases (§7.2) ---------------------------------------------
  bool write_leases = false;
  /// How many cycles a key's write lease stays active after a write commits.
  CycleId lease_cycles = 4;
};

}  // namespace canopus::core
