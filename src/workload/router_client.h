// RouterClient: the shard-aware client machine of a sharded deployment
// (workload/sharded.h).
//
// One RouterClient hosts many client *sessions* — up to the full
// million-client workload plane — with O(1) state per session: the only
// per-session storage is one 64-bit sequence cursor in a flat array. The
// arrival process is ClientMachine's machine-level open-loop Poisson draw
// (client.h), shared with OpenLoopClient. By superposition, a Poisson
// stream split uniformly over S sessions gives S independent Poisson
// sessions, so scaling the session count changes request *attribution*,
// never the event count — a 10^6-session trial costs the same simulation
// work as a 1-session one.
//
// Routing: every request's key names its owning consensus group through
// shard_of_key (key_sampler.h) — the router's shard lookup is a pure
// function, there is no routing table to refresh. Within the owning group
// the router round-robins over the group's servers and REDIRECTS on crashed
// targets: a down server is skipped for the next live sibling (counted in
// redirects()). When the whole group is down the batch is retried with
// bounded exponential backoff (kRetryBackoff << attempt) and counted
// failed() only after kMaxAttempts dispatches — OpenLoopClient's
// fail-at-submit with an honest retry story on top. Retried requests keep
// their original arrival timestamps, so their latency includes the backoff
// the client actually waited.
//
// Determinism: the router draws only from its own per-machine RNG stream;
// redirect choices read Network::is_up, which changes only at fault events
// (control-lane barriers under the PDES kernel), so routed traffic is
// bit-identical across --threads and --sim-threads like every other client.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kv/types.h"
#include "simnet/network.h"
#include "workload/client.h"
#include "workload/key_sampler.h"
#include "workload/stats.h"

namespace canopus::workload {

struct RouterConfig : ClientLoad {
  /// Server NodeIds per consensus group; group g owns the keys with
  /// shard_of_key(key, groups.size()) == g.
  std::vector<std::vector<NodeId>> groups;

  /// Client sessions hosted by this machine, at most 2^20. RequestId.client
  /// doubles as the reply routing address on every protocol's server side,
  /// so it must stay the machine's NodeId; session identity is packed into
  /// the sequence number instead — seq = session << 20 | counter — which
  /// keeps write ids ((client << 40) ^ seq, audit.h) unique fleet-wide as
  /// long as no single session issues 2^20 requests in one run.
  std::uint32_t sessions = 1;
};

class RouterClient : public ClientMachine {
 public:
  /// Session identity lives in RequestId.seq's upper bits (see
  /// RouterConfig::sessions): seq = session << kSessionShift | counter.
  static constexpr unsigned kSessionShift = 20;
  static constexpr std::uint32_t kMaxSessions = 1u << kSessionShift;
  /// Dispatch attempts per batch (1 initial + kMaxAttempts-1 retries)
  /// before its requests are counted failed.
  static constexpr int kMaxAttempts = 4;
  /// Backoff before retry k is kRetryBackoff << (k-1).
  static constexpr Time kRetryBackoff = 2 * kMillisecond;

  RouterClient(RouterConfig cfg, std::shared_ptr<LatencyRecorder> rec,
               std::uint64_t seed)
      : ClientMachine(cfg, std::move(rec), seed),
        groups_(std::move(cfg.groups)),
        seq_(cfg.sessions, 0),
        rr_(groups_.size(), 0),
        batches_(groups_.size()) {
    if (groups_.empty())
      throw std::invalid_argument("RouterClient: no consensus groups");
    for (const auto& g : groups_)
      if (g.empty())
        throw std::invalid_argument("RouterClient: empty consensus group");
    if (cfg.sessions == 0 || cfg.sessions > kMaxSessions)
      throw std::invalid_argument(
          "RouterClient: sessions must be in [1, 2^20]");
  }

  std::uint32_t sessions() const {
    return static_cast<std::uint32_t>(seq_.size());
  }
  /// Down servers skipped for a live sibling at dispatch time.
  std::uint64_t redirects() const { return redirects_; }
  /// Batches deferred with backoff because their whole group was down.
  std::uint64_t retries() const { return retries_; }

 private:
  void generate(std::uint64_t n) override {
    // One batch per owning group, kept across ticks: what the generation
    // path allocates is independent of the session count — the O(1)-per-
    // client invariant tests/workload/million_client_test.cpp pins.
    const auto num_groups = static_cast<std::uint32_t>(groups_.size());
    for (std::uint64_t i = 0; i < n; ++i) {
      // The session pick precedes the request's own draws.
      const auto session = static_cast<std::uint32_t>(rng_.below(seq_.size()));
      const kv::Request r = draw(
          (std::uint64_t{session} << kSessionShift) | seq_[session]++, i, n);
      batches_[shard_of_key(r.key, num_groups)].reqs.push_back(r);
    }
    for (std::size_t g = 0; g < batches_.size(); ++g)
      if (!batches_[g].reqs.empty()) dispatch(g, batches_[g], 1);
  }

  /// Sends `batch` to a live server of group g, redirecting past crashed
  /// ones; schedules a backoff retry when the whole group is down. Leaves
  /// `batch` empty either way.
  void dispatch(std::size_t g, kv::ClientBatch& batch, int attempt) {
    const std::vector<NodeId>& servers = groups_[g];
    const std::uint64_t start = rr_[g];
    rr_[g] = (rr_[g] + 1) % servers.size();
    for (std::size_t k = 0; k < servers.size(); ++k) {
      const NodeId target = servers[(start + k) % servers.size()];
      if (!net().is_up(target)) continue;
      redirects_ += k;
      send_batch(target, batch);
      return;
    }
    if (attempt >= kMaxAttempts) {
      fail_batch(batch);
      return;
    }
    ++retries_;
    const Time backoff = kRetryBackoff << (attempt - 1);
    after(backoff, [this, g, attempt, b = std::move(batch)]() mutable {
      dispatch(g, b, attempt + 1);
    });
    batch.reqs.clear();  // moved-from: valid, now surely empty
  }

  std::vector<std::vector<NodeId>> groups_;
  std::vector<std::uint64_t> seq_;  ///< the flat per-session cursor array —
                                    ///< ALL per-session state (8 B each)
  std::vector<std::uint64_t> rr_;   ///< per-group round-robin offset
  std::vector<kv::ClientBatch> batches_;  ///< generate()'s, one per group
  std::uint64_t redirects_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace canopus::workload
