// Open-loop Poisson client machines (paper §8.1 "clients send requests to
// nodes according to a Poisson process at a given inter-arrival rate").
// ClientMachine is the arrival process; OpenLoopClient (below) and
// RouterClient (router_client.h) only route its requests.
//
// Arrivals are aggregated per sub-millisecond tick into one ClientBatch
// message per target so simulating millions of requests per second stays
// tractable; each request keeps its exact arrival timestamp for latency
// measurement.
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
#include "workload/key_sampler.h"
#include "workload/stats.h"

namespace canopus::workload {

/// Arrival aggregation granularity of every client machine: one tick's
/// Poisson arrivals leave as one batch per target, each stamped at its own
/// point inside the tick.
inline constexpr Time kArrivalTick = 200 * kMicrosecond;

/// The load one client machine offers.
struct ClientLoad {
  double rate_per_s = 1'000;         ///< offered load (requests/second)
  double write_ratio = 0.2;          ///< paper default workload: 20% writes
  std::uint64_t num_keys = 1'000'000;  ///< key space size (§8.1: 1M keys)
  /// Key popularity: uniform (the paper's workload, the historical RNG
  /// stream) or Zipfian with exponent kZipfTheta (key_sampler.h).
  KeyDist key_dist = KeyDist::kUniform;
  Time stop_at = 0;                  ///< stop generating at this time
};

/// One machine's arrival process: each tick's Poisson count goes to
/// generate(), which batches draw()'s requests per target and hands each
/// batch to send_batch() or fail_batch().
class ClientMachine : public simnet::Process {
 public:
  ClientMachine(const ClientMachine&) = delete;  // its timers hold `this`
  ClientMachine& operator=(const ClientMachine&) = delete;

  void on_start() override { tick(); }

  void on_message(const simnet::Message& m) override {
    const auto* rb = m.as<kv::ReplyBatch>();
    if (rb == nullptr) return;
    for (const kv::Completion& done : rb->done) {
      rec_->complete(sim().now(), done.arrival);
      if (on_reply) on_reply(m.src(), done);
    }
  }

  /// Requests actually handed to the network.
  std::uint64_t sent() const { return sent_; }
  /// Requests given up on unsent because their target was down, reported
  /// through LatencyRecorder::fail so availability under faults is honest.
  std::uint64_t failed() const { return failed_; }
  /// Every request this machine generated (sent + failed).
  std::uint64_t generated() const { return sent_ + failed_; }

  /// Optional audit hook: fired for every completion the client observes,
  /// with the server that sent the reply (workload/audit.h wires this).
  std::function<void(NodeId, const kv::Completion&)> on_reply;

 protected:
  ClientMachine(const ClientLoad& load, std::shared_ptr<LatencyRecorder> rec,
                std::uint64_t seed)
      : rng_(seed), load_(load), rec_(std::move(rec)) {
    if (load_.key_dist == KeyDist::kZipfian)
      zipf_ = ZipfTable::get(load_.num_keys, kZipfTheta);
  }

  /// Routes and dispatches one tick's `n` > 0 arrivals.
  virtual void generate(std::uint64_t n) = 0;

  /// Arrival i of this tick's n, with RequestId {node_id(), seq}: draws its
  /// operation, key and value, and stamps its arrival.
  kv::Request draw(std::uint64_t seq, std::uint64_t i, std::uint64_t n) {
    kv::Request r;
    r.id = {node_id(), seq};
    r.is_write = rng_.uniform() < load_.write_ratio;
    // Both distributions consume one RNG draw; the uniform branch is the
    // historical stream (seeded goldens pin it byte-for-byte).
    r.key = zipf_ ? zipf_->draw(rng_) : rng_.below(load_.num_keys);
    r.value = rng_();
    // Arrival uniform within the tick; order within a batch is the
    // client's submission order, so timestamps must be sorted.
    r.arrival = sim().now() + static_cast<Time>(
                                  static_cast<double>(kArrivalTick) *
                                  (static_cast<double>(i) + 0.5) /
                                  static_cast<double>(n));
    return r;
  }

  /// Sends `batch` to `target` as one ClientBatch and leaves it empty,
  /// its capacity kept for the next tick. `memo` is the payload last sent
  /// from this batch: the batch refills its block once its server has
  /// dropped it (DESIGN.md §5.2).
  void send_batch(NodeId target, std::vector<kv::Request>& batch,
                  simnet::Payload& memo) {
    sent_ += batch.size();
    if (!memo.rewrite_body<kv::ClientBatch>(batch))
      memo = simnet::Payload::with_body<kv::ClientBatch>(batch);
    send(target, memo);
    batch.clear();
  }

  /// Counts every request of `batch` failed and leaves it empty.
  void fail_batch(std::vector<kv::Request>& batch) {
    failed_ += batch.size();
    for (const kv::Request& r : batch) rec_->fail(r.arrival);
    batch.clear();
  }

  Rng rng_;  ///< the arrival stream: tick counts and per-request draws

 private:
  void tick() {
    if (load_.stop_at > 0 && sim().now() >= load_.stop_at) return;
    const double mean =
        load_.rate_per_s * static_cast<double>(kArrivalTick) / kSecond;
    const std::uint64_t n = rng_.poisson(mean);
    if (n > 0) generate(n);
    after(kArrivalTick, [this] { tick(); });
  }

  ClientLoad load_;
  std::shared_ptr<LatencyRecorder> rec_;
  std::shared_ptr<const ZipfTable> zipf_;  ///< null for the uniform draw
  std::uint64_t sent_ = 0;
  std::uint64_t failed_ = 0;
};

struct ClientConfig : ClientLoad {
  /// Servers this client machine's sessions connect to. The paper's
  /// clients each pick a uniform same-rack node; a machine aggregates many
  /// client sessions, so its load is spread round-robin over all of them.
  std::vector<NodeId> servers;
};

/// The classic client machine: each tick's arrivals round-robin over a
/// fixed server list, and those for a crashed server fail at submission.
class OpenLoopClient : public ClientMachine {
 public:
  OpenLoopClient(ClientConfig cfg, std::shared_ptr<LatencyRecorder> rec,
                 std::uint64_t seed)
      : ClientMachine(cfg, std::move(rec), seed),
        servers_(std::move(cfg.servers)) {
    // generate() round-robins batches over servers_; an empty server list
    // would divide by zero there, so fail loudly at construction instead.
    if (servers_.empty())
      throw std::invalid_argument(
          "OpenLoopClient: ClientConfig.servers must be non-empty");
  }

 private:
  void generate(std::uint64_t n) override {
    // One batch per target server; requests round-robin across servers
    // with a rotating offset so each server sees the full key/op mix.
    const std::size_t S = servers_.size();
    if (batches_.empty()) {
      batches_.resize(S);
      memos_.resize(S);
    }
    for (std::uint64_t i = 0; i < n; ++i)
      batches_[(rotate_ + i) % S].push_back(draw(seq_++, i, n));
    rotate_ = (rotate_ + n) % S;
    for (std::size_t s = 0; s < S; ++s) {
      if (batches_[s].empty()) continue;
      // A crashed target would black-hole the batch: count its requests
      // failed instead, so fault benches can tell a slow system from a dead
      // server.
      if (net().is_up(servers_[s]))
        send_batch(servers_[s], batches_[s], memos_[s]);
      else
        fail_batch(batches_[s]);
    }
  }

  std::vector<NodeId> servers_;
  /// generate()'s per-server staging batches, kept across ticks (sized at
  /// the first tick with arrivals, not at construction), and the payload
  /// last sent from each.
  std::vector<std::vector<kv::Request>> batches_;
  std::vector<simnet::Payload> memos_;
  std::uint64_t seq_ = 0;
  std::uint64_t rotate_ = 0;
};

}  // namespace canopus::workload
