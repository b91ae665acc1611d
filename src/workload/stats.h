// Latency recording with percentile queries.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace canopus::workload {

/// Log-bucketed latency histogram (HDR-style): power-of-two major buckets
/// with 32 linear sub-buckets each — <= ~3% relative error, O(1) record.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kMajor * kSub, 0) {}

  void record(Time latency_ns) {
    if (latency_ns < 0) latency_ns = 0;
    buckets_[index(static_cast<std::uint64_t>(latency_ns))] += 1;
    ++count_;
    total_ += static_cast<std::uint64_t>(latency_ns);
  }

  std::uint64_t count() const { return count_; }

  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(total_) /
                             static_cast<double>(count_);
  }

  /// Returns a representative latency (ns) for quantile `p`; out-of-range
  /// (or NaN) inputs clamp to [0, 1] rather than indexing past the
  /// distribution or underflowing the `count_ - 1` rank arithmetic.
  Time percentile(double p) const {
    if (count_ == 0) return 0;
    if (!(p > 0.0)) p = 0.0;  // also catches NaN
    if (p > 1.0) p = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(p * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen > target) return static_cast<Time>(value_of(i));
    }
    return static_cast<Time>(value_of(buckets_.size() - 1));
  }

  Time median() const { return percentile(0.5); }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
      buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    total_ += other.total_;
  }

  void reset() {
    buckets_.assign(buckets_.size(), 0);
    count_ = 0;
    total_ = 0;
  }

 private:
  static constexpr std::size_t kMajor = 48;  // up to ~2^47 ns
  static constexpr std::size_t kSub = 32;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const auto major = static_cast<std::size_t>(msb) - 4;  // log2(kSub)-1
    const std::size_t sub =
        static_cast<std::size_t>(v >> (msb - 5)) & (kSub - 1);
    const std::size_t idx = major * kSub + sub;
    return idx < kMajor * kSub ? idx : kMajor * kSub - 1;
  }

  static std::uint64_t value_of(std::size_t idx) {
    const std::size_t major = idx / kSub, sub = idx % kSub;
    if (major == 0) return sub;
    const int shift = static_cast<int>(major) - 1;
    return (kSub + sub) << shift;
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
};

/// Shared sink for client-side completions within a measurement window.
///
/// The public complete()/fail() entry points serialize on a mutex and then
/// invoke the protected on_complete()/on_fail() hooks — faulted trials
/// override the hooks to split completions into per-phase windows
/// (PhasedRecorder, workload/fault_scenario.h). The mutex exists
/// for the sharded simulation kernel: clients in different shards report
/// concurrently, and everything the hooks accumulate (histogram buckets,
/// counters, per-phase minima) is order-independent, so the aggregate is
/// bit-identical to a serial run no matter how the lock interleaves.
class LatencyRecorder {
 public:
  virtual ~LatencyRecorder() = default;

  void set_window(Time begin, Time end) {
    begin_ = begin;
    end_ = end;
  }
  Time window_begin() const { return begin_; }
  Time window_end() const { return end_; }
  double window_seconds() const {
    return static_cast<double>(end_ - begin_) / kSecond;
  }

  /// Records a completion observed at `now` for a request that arrived at
  /// `arrival`; only arrivals inside the window count (steady state).
  void complete(Time now, Time arrival) {
    std::lock_guard<std::mutex> lock(mu_);
    on_complete(now, arrival);
  }

  /// Records a request that FAILED at submission — the client knows it will
  /// never complete (today: its target server is crashed, so the request
  /// would be black-holed). Windowed by arrival like complete(), so fault
  /// benches report honest per-phase failure counts instead of silently
  /// folding client-visible failures into "never completed".
  void fail(Time arrival) {
    std::lock_guard<std::mutex> lock(mu_);
    on_fail(arrival);
  }

  const LatencyHistogram& histogram() const { return hist_; }
  std::uint64_t completed() const { return hist_.count(); }
  std::uint64_t failed() const { return failed_; }

  /// Completed requests per second over the window.
  double throughput() const {
    const double s = window_seconds();
    return s > 0 ? static_cast<double>(hist_.count()) / s : 0;
  }

 protected:
  /// Hooks run under the recorder mutex. Overrides must only perform
  /// order-independent accumulation (sums, counts, minima) so sharded and
  /// serial runs agree bit-for-bit.
  virtual void on_complete(Time now, Time arrival) {
    if (arrival < begin_ || arrival >= end_) return;
    hist_.record(now - arrival);
  }

  virtual void on_fail(Time arrival) {
    if (arrival < begin_ || arrival >= end_) return;
    ++failed_;
  }

 private:
  Time begin_ = 0;
  Time end_ = 0;
  LatencyHistogram hist_;
  std::uint64_t failed_ = 0;
  std::mutex mu_;
};

}  // namespace canopus::workload
