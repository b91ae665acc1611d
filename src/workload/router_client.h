// RouterClient: the shard-aware client machine of a sharded deployment
// (workload/sharded.h).
//
// One RouterClient hosts many client *sessions* — up to the full
// million-client workload plane — with O(1) state per session: the only
// per-session storage is one 64-bit sequence cursor in a flat array. The
// arrival process stays the machine-level open-loop Poisson draw of
// OpenLoopClient (superposition: a Poisson stream split uniformly over S
// sessions gives S independent Poisson sessions), so scaling the session
// count changes request *attribution*, never the event count — a 10^6-
// session trial costs the same simulation work as a 1-session one.
//
// Routing: every request's key names its owning consensus group through
// shard_of_key (key_sampler.h) — the router's shard lookup is a pure
// function, there is no routing table to refresh. Within the owning group
// the router round-robins over the group's servers and REDIRECTS on crashed
// targets: a down server is skipped for the next live sibling (counted in
// redirects()). When the whole group is down the batch is retried with
// bounded exponential backoff (kRetryBackoff << attempt) and counted failed
// only after kMaxAttempts dispatches — subsuming the old fail-at-submit
// client behavior with an honest retry story; retried requests keep their
// original arrival timestamps, so their latency includes the backoff the
// client actually waited.
//
// Determinism: the router draws only from its own per-machine RNG stream;
// redirect choices read Network::is_up, which changes only at fault events
// (control-lane barriers under the PDES kernel), so routed traffic is
// bit-identical across --threads and --sim-threads like every other client.
#pragma once

#include <cstdint>
#include <functional>
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

struct RouterConfig {
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

  double rate_per_s = 1'000;  ///< machine-aggregate offered load
  double write_ratio = 0.2;
  std::uint64_t num_keys = 1'000'000;
  KeyDist key_dist = KeyDist::kUniform;
  double zipf_theta = 0.99;
  Time stop_at = 0;
};

class RouterClient : public simnet::Process {
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
      : cfg_(std::move(cfg)),
        rec_(std::move(rec)),
        rng_(seed),
        seq_(cfg_.sessions, 0),
        rr_(cfg_.groups.size(), 0) {
    if (cfg_.groups.empty())
      throw std::invalid_argument("RouterClient: no consensus groups");
    for (const auto& g : cfg_.groups)
      if (g.empty())
        throw std::invalid_argument("RouterClient: empty consensus group");
    if (cfg_.sessions == 0 || cfg_.sessions > kMaxSessions)
      throw std::invalid_argument(
          "RouterClient: sessions must be in [1, 2^20]");
    if (cfg_.key_dist == KeyDist::kZipfian)
      zipf_ = ZipfTable::get(cfg_.num_keys, cfg_.zipf_theta);
  }

  void on_start() override { tick(); }

  void on_message(const simnet::Message& m) override {
    const auto* rb = m.as<kv::ReplyBatch>();
    if (rb == nullptr) return;
    for (const kv::Completion& done : rb->done) {
      rec_->complete(sim().now(), done.arrival);
      if (on_reply) on_reply(m.src(), done);
    }
  }

  std::uint32_t sessions() const { return cfg_.sessions; }
  /// Requests actually handed to the network.
  std::uint64_t sent() const { return sent_; }
  /// Requests that exhausted every dispatch attempt (whole owning group
  /// down through kMaxAttempts tries); reported via LatencyRecorder::fail.
  std::uint64_t failed() const { return failed_; }
  /// Down servers skipped for a live sibling at dispatch time.
  std::uint64_t redirects() const { return redirects_; }
  /// Batches deferred with backoff because their whole group was down.
  std::uint64_t retries() const { return retries_; }
  std::uint64_t generated() const { return sent_ + failed_; }

  /// Audit hook: every completion, with the server that served it.
  std::function<void(NodeId, const kv::Completion&)> on_reply;

 private:
  void tick() {
    if (cfg_.stop_at > 0 && sim().now() >= cfg_.stop_at) return;
    const double mean =
        cfg_.rate_per_s * static_cast<double>(kArrivalTick) / kSecond;
    const std::uint64_t n = rng_.poisson(mean);
    if (n > 0) {
      // One batch per owning group this tick. The per-tick vector is the
      // only allocation of the generation path and is independent of the
      // session count — the O(1)-per-client invariant the million-client
      // allocation test pins (tests/workload/million_client_test.cpp).
      std::vector<kv::ClientBatch> batches(cfg_.groups.size());
      const std::uint32_t num_groups =
          static_cast<std::uint32_t>(cfg_.groups.size());
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t session =
            static_cast<std::uint32_t>(rng_.below(cfg_.sessions));
        kv::Request r;
        r.id = {node_id(),
                (std::uint64_t{session} << kSessionShift) | seq_[session]++};
        r.is_write = rng_.uniform() < cfg_.write_ratio;
        r.key = zipf_ ? zipf_->draw(rng_) : rng_.below(cfg_.num_keys);
        r.value = rng_();
        r.arrival = sim().now() + static_cast<Time>(
                                      static_cast<double>(kArrivalTick) *
                                      (static_cast<double>(i) + 0.5) /
                                      static_cast<double>(n));
        batches[shard_of_key(r.key, num_groups)].reqs.push_back(r);
      }
      for (std::size_t g = 0; g < batches.size(); ++g) {
        if (batches[g].reqs.empty()) continue;
        dispatch(g, std::move(batches[g]), 1);
      }
    }
    after(kArrivalTick, [this] { tick(); });
  }

  /// Sends `batch` to a live server of group g, redirecting past crashed
  /// ones; schedules a backoff retry when the whole group is down.
  void dispatch(std::size_t g, kv::ClientBatch batch, int attempt) {
    const std::vector<NodeId>& servers = cfg_.groups[g];
    const std::uint64_t start = rr_[g];
    rr_[g] = (rr_[g] + 1) % servers.size();
    for (std::size_t k = 0; k < servers.size(); ++k) {
      const NodeId target = servers[(start + k) % servers.size()];
      if (!net().is_up(target)) continue;
      redirects_ += k;
      sent_ += batch.reqs.size();
      // Size before move: argument evaluation order is unspecified.
      const std::size_t bytes = batch.wire_bytes();
      send(target, bytes, std::move(batch));
      return;
    }
    if (attempt >= kMaxAttempts) {
      failed_ += batch.reqs.size();
      for (const kv::Request& r : batch.reqs) rec_->fail(r.arrival);
      return;
    }
    ++retries_;
    const Time backoff = kRetryBackoff << (attempt - 1);
    after(backoff, [this, g, attempt, b = std::move(batch)]() mutable {
      dispatch(g, std::move(b), attempt + 1);
    });
  }

  RouterConfig cfg_;
  std::shared_ptr<LatencyRecorder> rec_;
  std::shared_ptr<const ZipfTable> zipf_;  ///< null for the uniform draw
  Rng rng_;
  std::vector<std::uint64_t> seq_;  ///< the flat per-session cursor array —
                                    ///< ALL per-session state (8 B each)
  std::vector<std::uint64_t> rr_;   ///< per-group round-robin offset
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t redirects_ = 0;
  std::uint64_t retries_ = 0;
};

}  // namespace canopus::workload
