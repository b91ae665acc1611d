// Zipfian key sampler: distribution shape (chi-square against the exact
// pmf), the one-uniform-draw contract that keeps seeded goldens stable, and
// bit-identical key streams across reruns and PDES shard counts.
#include "workload/key_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "workload/trial.h"

namespace canopus::workload {
namespace {

TEST(ShardOfKey, CoversAllGroupsAndIsPure) {
  const std::uint32_t groups = 4;
  std::set<std::uint32_t> hit;
  for (std::uint64_t k = 0; k < 256; ++k) {
    const std::uint32_t g = shard_of_key(k, groups);
    ASSERT_LT(g, groups);
    EXPECT_EQ(g, shard_of_key(k, groups));  // pure function
    hit.insert(g);
  }
  EXPECT_EQ(hit.size(), groups);
}

TEST(ShardOfKey, DecorrelatesConsecutiveRanks) {
  // raw rank % groups would alternate perfectly; the mixed hash must not.
  const std::uint32_t groups = 2;
  int same_as_next = 0;
  for (std::uint64_t k = 0; k + 1 < 512; ++k)
    if (shard_of_key(k, groups) == shard_of_key(k + 1, groups))
      ++same_as_next;
  // Unmixed striping gives exactly 0; a mixed hash stays near half.
  EXPECT_GT(same_as_next, 128);
  EXPECT_LT(same_as_next, 384);
}

TEST(ZipfTable, PmfIsANormalizedDistribution) {
  const ZipfTable t(1'000, 0.99);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < t.n(); ++k) sum += t.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(t.pmf(0), t.pmf(1));
  EXPECT_GT(t.pmf(1), t.pmf(10));
  EXPECT_GT(t.pmf(10), t.pmf(999));
}

TEST(ZipfTable, ChiSquareMatchesPmf) {
  // 50k draws binned as {0}, {1}, [2,10), [10,100), [100,1000). The seeded
  // draw makes both statistics single deterministic numbers. The Gray et
  // al. inversion carries a documented few-percent bias in the middle
  // ranks (it inverts the continuous zipf CDF), which at 50k draws
  // dominates sampling noise — so the gates are (a) every bin within 10%
  // relative error of the exact pmf mass and (b) a chi-square bound sized
  // to admit that bias (0.5% of draws). A wrong exponent, a broken
  // normalization or a non-uniform source moves bin masses far past both.
  const auto table = ZipfTable::get(1'000, 0.99);
  const std::uint64_t kDraws = 50'000;
  const std::uint64_t edges[] = {0, 1, 2, 10, 100, 1'000};
  constexpr std::size_t kBins = 5;
  std::uint64_t observed[kBins] = {};
  Rng rng(0x21bf5ULL);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const std::uint64_t k = table->draw(rng);
    ASSERT_LT(k, table->n());
    for (std::size_t b = 0; b < kBins; ++b)
      if (k >= edges[b] && k < edges[b + 1]) {
        ++observed[b];
        break;
      }
  }
  double stat = 0.0;
  for (std::size_t b = 0; b < kBins; ++b) {
    double p = 0.0;
    for (std::uint64_t k = edges[b]; k < edges[b + 1]; ++k) p += table->pmf(k);
    const double expected = p * static_cast<double>(kDraws);
    ASSERT_GT(expected, 5.0);  // chi-square validity
    const double d = static_cast<double>(observed[b]) - expected;
    EXPECT_LT(std::abs(d) / expected, 0.10)
        << "bin [" << edges[b] << "," << edges[b + 1] << ") observed "
        << observed[b] << " expected " << expected;
    stat += d * d / expected;
  }
  EXPECT_LT(stat, 0.005 * static_cast<double>(kDraws))
      << "zipf sample diverges from pmf, chi2=" << stat;
  // Popularity must actually be skewed: the single most popular rank draws
  // orders of magnitude more than the uniform per-rank share (50 here).
  EXPECT_GT(observed[0], 50u * 20u);
}

TEST(ZipfTable, DrawConsumesExactlyOneUniform) {
  // The golden-stability contract: swapping the uniform draw for the zipf
  // draw changes WHICH key comes out, never how much RNG stream is eaten.
  const auto table = ZipfTable::get(4'096, 0.99);
  Rng a(42), b(42);
  for (int i = 0; i < 1'000; ++i) table->draw(a);
  for (int i = 0; i < 1'000; ++i) b.uniform();
  EXPECT_EQ(a(), b());
}

TEST(ZipfTable, SameSeedSameStreamDifferentSeedDiffers) {
  const auto table = ZipfTable::get(100'000, 0.99);
  Rng a(7), b(7), c(8);
  std::vector<std::uint64_t> sa, sb, sc;
  for (int i = 0; i < 512; ++i) {
    sa.push_back(table->draw(a));
    sb.push_back(table->draw(b));
    sc.push_back(table->draw(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(ZipfTable, CacheSharesOneTablePerParameterPoint) {
  const auto a = ZipfTable::get(12'345, 0.99);
  const auto b = ZipfTable::get(12'345, 0.99);
  const auto c = ZipfTable::get(12'345, 0.80);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

// --- end-to-end determinism of zipfian-keyed trials -----------------------

TrialConfig zipf_config(System sys) {
  TrialConfig tc;
  tc.system = sys;
  tc.groups = 2;
  tc.per_group = 3;
  tc.client_machines = 1;
  tc.key_dist = KeyDist::kZipfian;
  tc.num_keys = 10'000;
  tc.warmup = 200 * kMillisecond;
  tc.measure = 600 * kMillisecond;
  tc.drain = 300 * kMillisecond;
  return tc;
}

TEST(ZipfDeterminism, ClassicTrialRepeatsExactly) {
  const TrialConfig tc = zipf_config(System::kRaft);
  const Measurement a = run_trial(tc, 4'000);
  const Measurement b = run_trial(tc, 4'000);
  EXPECT_GT(a.completed, 0u);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.p99, b.p99);
}

TEST(ZipfDeterminism, ShardedZipfStreamsIdenticalAcrossSimThreads) {
  // The strongest pin available: the per-group commit fingerprints hash
  // every committed (id, key, value) in order, so equal digests mean the
  // zipfian key stream reaching every group was bit-identical under the
  // serial and the 2-shard PDES kernels.
  TrialConfig tc = zipf_config(System::kRaft);
  const auto run = [&tc] {
    return run_trial({tc, 4'000, trial_seed(tc, 4'000), 64});
  };
  const TrialReport serial = run();
  tc.sim_threads = 2;
  const TrialReport sharded = run();
  EXPECT_GT(serial.steady.completed, 0u);
  EXPECT_TRUE(serial.converged());
  EXPECT_TRUE(sharded.converged());
  EXPECT_EQ(serial.nodes, sharded.nodes);
  EXPECT_EQ(serial.steady.completed, sharded.steady.completed);
  EXPECT_EQ(serial.sent, sharded.sent);
}

}  // namespace
}  // namespace canopus::workload
