// Key-popularity samplers and the keyspace partition function for sharded
// deployments.
//
// Two key distributions drive the workload plane (ClientLoad::key_dist):
//  * kUniform — the paper's §8.1 workload: keys drawn uniformly from
//    [0, num_keys). This is the historical draw (Rng::below) and its RNG
//    consumption is left byte-identical so seeded goldens stay pinned.
//  * kZipfian — skewed popularity: key k is the k-th most popular, with
//    P(k) ∝ 1/(k+1)^theta. Sampling uses the bounded-Zipf inversion of
//    Gray et al. ("Quickly generating billion-record synthetic databases",
//    SIGMOD '94), the same scheme YCSB ships: one uniform draw plus O(1)
//    arithmetic per sample, after a one-time O(n) zeta-constant precompute.
//
// Determinism: a sample is a pure function of (table constants, one
// Rng::uniform() draw). The constants are a pure function of (n, theta) —
// summed in a fixed order — so runs are bit-identical across trial threads
// and PDES shard maps; like the simulator's exponential/normal draws they
// go through libm, which pins them per-platform (the documented caveat for
// cross-platform baseline comparison).
//
// shard_of_key is the ONE keyspace partition function of the sharded
// service (workload/sharded.h) and its router clients: a mixed hash of the
// key modulo the group count. The mix (splitmix64 finalizer) decorrelates
// group choice from Zipf rank order — raw `rank % groups` would stripe the
// hottest keys over groups in lockstep, hiding exactly the hot-group
// imbalance a skewed-popularity benchmark exists to show.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/rng.h"

namespace canopus::workload {

/// Which popularity distribution a client draws keys from.
enum class KeyDist { kUniform, kZipfian };

/// The kZipfian exponent: YCSB's default skew.
inline constexpr double kZipfTheta = 0.99;

inline const char* key_dist_name(KeyDist d) {
  switch (d) {
    case KeyDist::kUniform: return "uniform";
    case KeyDist::kZipfian: return "zipfian";
  }
  return "?";
}

/// Keyspace partition: the consensus group owning `key` in an
/// `num_groups`-way sharded deployment. Pure function — every router
/// client, test and bench agrees on ownership by construction.
inline std::uint32_t shard_of_key(std::uint64_t key,
                                  std::uint32_t num_groups) {
  std::uint64_t s = key;
  return static_cast<std::uint32_t>(splitmix64(s) % num_groups);
}

/// Precomputed constants for bounded-Zipf inversion over n keys with
/// exponent theta in (0, 1). Immutable after construction; one table is
/// shared (shared_ptr<const>) by every client of a trial — and, via get(),
/// by every trial with the same (n, theta) — so a million sessions carry
/// zero per-session sampler state.
class ZipfTable {
 public:
  ZipfTable(std::uint64_t n, double theta)
      : n_(n), theta_(theta), zetan_(zeta(n, theta)) {
    const double zeta2 = zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    half_pow_theta_ = 1.0 + std::pow(0.5, theta);
  }

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  /// Draws a key rank in [0, n): rank 0 is the most popular key. Consumes
  /// exactly one Rng::uniform() draw.
  std::uint64_t draw(Rng& rng) const {
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < half_pow_theta_) return 1;
    const std::uint64_t k = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return k >= n_ ? n_ - 1 : k;  // FP edge: clamp into range
  }

  /// Exact probability of rank k under the distribution (test oracle for
  /// the chi-square check).
  double pmf(std::uint64_t k) const {
    return std::pow(static_cast<double>(k + 1), -theta_) / zetan_;
  }

  /// Process-wide table cache: zeta(n) is an O(n) sum (tens of ms at the
  /// paper's 1M-key space), far too hot to redo per client machine, and a
  /// pure function of (n, theta) — so sharing across trials and trial-pool
  /// threads cannot couple their results.
  static std::shared_ptr<const ZipfTable> get(std::uint64_t n, double theta) {
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, std::uint64_t>,
                    std::shared_ptr<const ZipfTable>>
        cache;
    const auto key = std::make_pair(
        n, std::bit_cast<std::uint64_t>(theta));
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = cache[key];
    if (!slot) slot = std::make_shared<const ZipfTable>(n, theta);
    return slot;
  }

 private:
  /// Generalized harmonic number H_{n,theta}, summed in fixed index order
  /// (determinism: FP addition is not associative).
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
      sum += std::pow(static_cast<double>(i), -theta);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
  double half_pow_theta_;
};

}  // namespace canopus::workload
