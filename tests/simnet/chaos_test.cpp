// ChaosScheduleGenerator property tests: storms are a pure function of the
// seed, respect their window and min-heal delays, pair every fault with a
// repair, and never exceed the configured blast radius.
#include "simnet/chaos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "testutil/schedule_digest.h"

namespace canopus::simnet {
namespace {

ChaosConfig test_config() {
  ChaosConfig cfg;
  cfg.start = 500 * kMillisecond;
  cfg.end = 3'000 * kMillisecond;
  cfg.events_per_s = 20.0;
  cfg.max_down = 2;
  cfg.max_severed = 3;
  cfg.min_heal = 100 * kMillisecond;
  cfg.mean_extra = 150 * kMillisecond;
  return cfg;
}

std::vector<NodeId> test_nodes() { return {0, 1, 2, 3, 4, 5, 6, 7, 8}; }

/// A config with the whole palette enabled (equal weights).
ChaosConfig gray_config() {
  ChaosConfig cfg = test_config();
  cfg.cpu_weight = cfg.flap_weight = cfg.dup_weight = cfg.reorder_weight =
      cfg.skew_weight = 1.0;
  return cfg;
}

/// Fault families for pairing/blast-radius bookkeeping: start and stop of
/// one fault map to the same family.
int family_of(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kCrash:
    case FaultEvent::Kind::kRecover: return 0;
    case FaultEvent::Kind::kSever:
    case FaultEvent::Kind::kHeal: return 1;
    case FaultEvent::Kind::kCpuSlow:
    case FaultEvent::Kind::kCpuNormal: return 2;
    case FaultEvent::Kind::kFlapStart:
    case FaultEvent::Kind::kFlapStop: return 3;
    case FaultEvent::Kind::kDupStart:
    case FaultEvent::Kind::kDupStop: return 4;
    case FaultEvent::Kind::kReorderStart:
    case FaultEvent::Kind::kReorderStop: return 5;
    case FaultEvent::Kind::kSkewSet:
    case FaultEvent::Kind::kSkewClear: return 6;
  }
  return -1;
}

bool starts_fault(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kCrash:
    case FaultEvent::Kind::kSever:
    case FaultEvent::Kind::kCpuSlow:
    case FaultEvent::Kind::kFlapStart:
    case FaultEvent::Kind::kDupStart:
    case FaultEvent::Kind::kReorderStart:
    case FaultEvent::Kind::kSkewSet: return true;
    default: return false;
  }
}

/// Pair kinds carry a victim pair; node kinds a single victim.
bool pair_family(int family) {
  return family == 1 || family == 3 || family == 4 || family == 5;
}

TEST(FaultFamilies, TableMatchesTheTaxonomy) {
  // kFaultFamilies states which kind repairs which and what each family
  // targets; the helpers above restate it independently, kind by kind.
  for (int k = 0; k <= static_cast<int>(FaultEvent::Kind::kSkewClear); ++k) {
    const auto kind = static_cast<FaultEvent::Kind>(k);
    const FaultFamily& row = kFaultFamilies[fault_family(kind)];
    EXPECT_EQ(static_cast<int>(fault_family(kind)), family_of(kind))
        << fault_kind_name(kind);
    EXPECT_EQ(is_repair(kind), !starts_fault(kind)) << fault_kind_name(kind);
    EXPECT_EQ(starts_fault(kind) ? row.fault : row.repair, kind);
    EXPECT_EQ(row.pair, pair_family(family_of(kind))) << fault_kind_name(kind);
  }
  EXPECT_EQ(kNumFaultFamilies, 7u);
}

TEST(ChaosScheduleGenerator, SameSeedSameSchedule) {
  const ChaosConfig cfg = test_config();
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    ChaosScheduleGenerator g1(seed), g2(seed);
    const FaultSchedule s1 = g1.generate(cfg, test_nodes());
    const FaultSchedule s2 = g2.generate(cfg, test_nodes());
    EXPECT_FALSE(s1.empty()) << "storm with seed " << seed << " is empty";
    EXPECT_EQ(s1.events(), s2.events()) << "seed " << seed;
  }
}

TEST(ChaosScheduleGenerator, PinnedStormsAreBitIdentical) {
  // One classic and one whole-palette (gray-mix) storm at a fixed seed,
  // pinned bit for bit: a change to the generator or the fault taxonomy
  // must not move a single event of any committed storm.
  ChaosScheduleGenerator classic(42), mix(42);
  const FaultSchedule c = classic.generate(test_config(), test_nodes());
  const FaultSchedule g = mix.generate(gray_config(), test_nodes());
  EXPECT_EQ(c.events().size(), 68u);
  EXPECT_EQ(testutil::schedule_digest(c), 0xe2b154663fbc7834ULL);
  EXPECT_EQ(g.events().size(), 86u);
  EXPECT_EQ(testutil::schedule_digest(g), 0x48d273719f09d467ULL);
}

TEST(ChaosScheduleGenerator, DifferentSeedsDiffer) {
  const ChaosConfig cfg = test_config();
  ChaosScheduleGenerator g1(1), g2(2);
  const FaultSchedule s1 = g1.generate(cfg, test_nodes());
  const FaultSchedule s2 = g2.generate(cfg, test_nodes());
  EXPECT_NE(s1.events(), s2.events());
}

TEST(ChaosScheduleGenerator, GeneratorStateAdvances) {
  // Two storms drawn from ONE generator differ: the per-trial seed, not a
  // reset, decides the storm.
  const ChaosConfig cfg = test_config();
  ChaosScheduleGenerator g(7);
  const FaultSchedule s1 = g.generate(cfg, test_nodes());
  const FaultSchedule s2 = g.generate(cfg, test_nodes());
  EXPECT_NE(s1.events(), s2.events());
}

TEST(ChaosScheduleGenerator, EventsInsideWindowSortedAndPaired) {
  const ChaosConfig cfg = test_config();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosScheduleGenerator gen(seed);
    const FaultSchedule s = gen.generate(cfg, test_nodes());
    Time prev = cfg.start;
    std::map<NodeId, Time> down_since;          // node -> crash time
    std::map<std::pair<NodeId, NodeId>, Time> severed_since;
    for (const FaultEvent& ev : s.events()) {
      EXPECT_GE(ev.at, cfg.start) << "seed " << seed;
      EXPECT_LE(ev.at, cfg.end) << "seed " << seed;
      EXPECT_GE(ev.at, prev) << "schedule not time-sorted, seed " << seed;
      prev = ev.at;
      switch (ev.kind) {
        case FaultEvent::Kind::kCrash:
          EXPECT_FALSE(down_since.count(ev.a))
              << "double crash of node " << ev.a << ", seed " << seed;
          down_since[ev.a] = ev.at;
          break;
        case FaultEvent::Kind::kRecover: {
          ASSERT_TRUE(down_since.count(ev.a))
              << "recover without crash, seed " << seed;
          // Min fault duration: the repair respects min_heal.
          EXPECT_GE(ev.at - down_since[ev.a], cfg.min_heal)
              << "seed " << seed;
          down_since.erase(ev.a);
          break;
        }
        case FaultEvent::Kind::kSever: {
          const auto key = std::make_pair(ev.a, ev.b);
          EXPECT_FALSE(severed_since.count(key)) << "seed " << seed;
          severed_since[key] = ev.at;
          break;
        }
        case FaultEvent::Kind::kHeal: {
          const auto key = std::make_pair(ev.a, ev.b);
          ASSERT_TRUE(severed_since.count(key)) << "seed " << seed;
          EXPECT_GE(ev.at - severed_since[key], cfg.min_heal)
              << "seed " << seed;
          severed_since.erase(key);
          break;
        }
        default: break;  // gray kinds: covered by the gray pairing test
      }
    }
    // Every fault healed by the end of the storm window.
    EXPECT_TRUE(down_since.empty()) << "unrecovered crash, seed " << seed;
    EXPECT_TRUE(severed_since.empty()) << "unhealed sever, seed " << seed;
  }
}

TEST(ChaosScheduleGenerator, RespectsBlastRadius) {
  ChaosConfig cfg = test_config();
  cfg.events_per_s = 200.0;  // saturate: force the caps to bind
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosScheduleGenerator gen(seed);
    const FaultSchedule s = gen.generate(cfg, test_nodes());
    std::set<NodeId> down;
    std::set<std::pair<NodeId, NodeId>> severed;
    std::size_t peak_down = 0, peak_severed = 0;
    for (const FaultEvent& ev : s.events()) {
      switch (ev.kind) {
        case FaultEvent::Kind::kCrash: down.insert(ev.a); break;
        case FaultEvent::Kind::kRecover: down.erase(ev.a); break;
        case FaultEvent::Kind::kSever: severed.insert({ev.a, ev.b}); break;
        case FaultEvent::Kind::kHeal: severed.erase({ev.a, ev.b}); break;
        default: break;
      }
      peak_down = std::max(peak_down, down.size());
      peak_severed = std::max(peak_severed, severed.size());
    }
    EXPECT_LE(peak_down, static_cast<std::size_t>(cfg.max_down))
        << "seed " << seed;
    EXPECT_LE(peak_severed, static_cast<std::size_t>(cfg.max_severed))
        << "seed " << seed;
  }
  // The saturated storm actually reaches the caps — otherwise this test
  // proves nothing about them.
  ChaosScheduleGenerator gen(1);
  const FaultSchedule s = gen.generate(cfg, test_nodes());
  EXPECT_GT(s.events().size(), 8u);
}

TEST(ChaosScheduleGenerator, TargetsOnlyGivenNodes) {
  const ChaosConfig cfg = test_config();
  const std::vector<NodeId> nodes = {10, 20, 30};
  ChaosScheduleGenerator gen(3);
  const FaultSchedule s = gen.generate(cfg, nodes);
  const std::set<NodeId> allowed(nodes.begin(), nodes.end());
  for (const FaultEvent& ev : s.events()) {
    EXPECT_TRUE(allowed.count(ev.a)) << "targeted foreign node " << ev.a;
    if (ev.kind == FaultEvent::Kind::kSever ||
        ev.kind == FaultEvent::Kind::kHeal) {
      EXPECT_TRUE(allowed.count(ev.b)) << "targeted foreign node " << ev.b;
    }
  }
}

TEST(ChaosScheduleGenerator, GraySameSeedSameSchedule) {
  const ChaosConfig cfg = gray_config();
  for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    ChaosScheduleGenerator g1(seed), g2(seed);
    const FaultSchedule s1 = g1.generate(cfg, test_nodes());
    const FaultSchedule s2 = g2.generate(cfg, test_nodes());
    EXPECT_FALSE(s1.empty()) << "gray storm with seed " << seed << " is empty";
    EXPECT_EQ(s1.events(), s2.events()) << "seed " << seed;
  }
}

TEST(ChaosScheduleGenerator, GrayWeightsZeroPreservesClassicStorms) {
  // The palette extension must not move the RNG stream of pre-gray
  // configs: a config with gray weights 0 draws the exact storm the
  // two-kind generator drew (this is what keeps committed chaos baselines
  // and goldens valid).
  const ChaosConfig classic = test_config();
  ChaosConfig zeroed = gray_config();
  zeroed.cpu_weight = zeroed.flap_weight = zeroed.dup_weight =
      zeroed.reorder_weight = zeroed.skew_weight = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ChaosScheduleGenerator g1(seed), g2(seed);
    EXPECT_EQ(g1.generate(classic, test_nodes()).events(),
              g2.generate(zeroed, test_nodes()).events())
        << "seed " << seed;
  }
}

TEST(ChaosScheduleGenerator, GrayEventsInsideWindowPairedAndParameterized) {
  const ChaosConfig cfg = gray_config();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosScheduleGenerator gen(seed);
    const FaultSchedule s = gen.generate(cfg, test_nodes());
    bool saw_gray = false;
    Time prev = cfg.start;
    // (family, a, b) -> start time of the open fault.
    std::map<std::tuple<int, NodeId, NodeId>, Time> open;
    for (const FaultEvent& ev : s.events()) {
      EXPECT_GE(ev.at, cfg.start) << "seed " << seed;
      EXPECT_LE(ev.at, cfg.end) << "seed " << seed;
      EXPECT_GE(ev.at, prev) << "not time-sorted, seed " << seed;
      prev = ev.at;
      const int fam = family_of(ev.kind);
      ASSERT_GE(fam, 0);
      if (fam >= 2) saw_gray = true;
      const NodeId b = pair_family(fam) ? ev.b : kInvalidNode;
      const auto key = std::make_tuple(fam, ev.a, b);
      if (starts_fault(ev.kind)) {
        EXPECT_FALSE(open.count(key))
            << "overlapping same-kind fault on one victim, seed " << seed;
        open[key] = ev.at;
      } else {
        ASSERT_TRUE(open.count(key)) << "repair without fault, seed " << seed;
        EXPECT_GE(ev.at - open[key], cfg.min_heal) << "seed " << seed;
        open.erase(key);
      }
      // Severity parameters propagate from the config.
      switch (ev.kind) {
        case FaultEvent::Kind::kCpuSlow:
          EXPECT_EQ(ev.x, cfg.cpu_factor);
          break;
        case FaultEvent::Kind::kFlapStart:
          EXPECT_EQ(ev.d, cfg.flap_period);
          break;
        case FaultEvent::Kind::kDupStart:
          EXPECT_EQ(ev.d, cfg.dup_echo);
          break;
        case FaultEvent::Kind::kReorderStart:
          EXPECT_EQ(ev.d, cfg.reorder_jitter);
          break;
        case FaultEvent::Kind::kSkewSet:
          EXPECT_GE(ev.x, cfg.skew_rate_lo);
          EXPECT_LE(ev.x, cfg.skew_rate_hi);
          EXPECT_EQ(ev.d, 0);
          break;
        default: break;
      }
    }
    // Every fault of every kind repaired by the window's end.
    EXPECT_TRUE(open.empty()) << "unrepaired fault, seed " << seed;
    EXPECT_TRUE(saw_gray) << "no gray event drawn, seed " << seed;
  }
}

TEST(ChaosScheduleGenerator, GrayRespectsPerKindBlastRadius) {
  ChaosConfig cfg = gray_config();
  cfg.events_per_s = 200.0;  // saturate: force every cap to bind
  const std::size_t caps[] = {
      static_cast<std::size_t>(cfg.max_down),
      static_cast<std::size_t>(cfg.max_severed),
      static_cast<std::size_t>(kMaxSlow),
      static_cast<std::size_t>(kMaxFlapping),
      static_cast<std::size_t>(kMaxDup),
      static_cast<std::size_t>(kMaxReorder),
      static_cast<std::size_t>(kMaxSkewed),
  };
  std::size_t peak[7] = {};
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ChaosScheduleGenerator gen(seed);
    const FaultSchedule s = gen.generate(cfg, test_nodes());
    std::size_t active[7] = {};
    for (const FaultEvent& ev : s.events()) {
      const int fam = family_of(ev.kind);
      ASSERT_GE(fam, 0);
      if (starts_fault(ev.kind))
        ++active[fam];
      else
        --active[fam];
      EXPECT_LE(active[fam], caps[fam])
          << "family " << fam << " over its cap, seed " << seed;
      peak[fam] = std::max(peak[fam], active[fam]);
    }
  }
  // The saturated sweep actually reaches every cap — otherwise this test
  // proves nothing about them.
  for (int fam = 0; fam < 7; ++fam)
    EXPECT_EQ(peak[fam], caps[fam]) << "family " << fam << " never saturated";
}

TEST(ChaosConfigValidate, RejectsInconsistentKnobs) {
  const auto expect_throws = [](auto mutate, const char* what) {
    ChaosConfig cfg = gray_config();
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument) << what;
    ChaosScheduleGenerator gen(1);
    EXPECT_THROW(gen.generate(cfg, {0, 1, 2}), std::invalid_argument) << what;
  };
  expect_throws([](ChaosConfig& c) { c.end = c.start; }, "empty window");
  expect_throws([](ChaosConfig& c) { c.end = c.start - 1; },
                "inverted window");
  expect_throws([](ChaosConfig& c) { c.min_heal = 0; }, "min_heal zero");
  expect_throws([](ChaosConfig& c) { c.min_heal = -kMillisecond; },
                "min_heal negative");
  expect_throws([](ChaosConfig& c) { c.min_heal = c.end - c.start; },
                "min_heal swallows the window");
  expect_throws([](ChaosConfig& c) { c.events_per_s = -1; }, "negative rate");
  expect_throws([](ChaosConfig& c) { c.mean_extra = -1; },
                "negative mean_extra");
  expect_throws([](ChaosConfig& c) { c.crash_weight = -0.5; },
                "negative crash_weight");
  expect_throws([](ChaosConfig& c) { c.sever_weight = -1; },
                "negative sever_weight");
  expect_throws([](ChaosConfig& c) { c.cpu_weight = -1; },
                "negative cpu_weight");
  expect_throws([](ChaosConfig& c) { c.flap_weight = -1; },
                "negative flap_weight");
  expect_throws([](ChaosConfig& c) { c.dup_weight = -1; },
                "negative dup_weight");
  expect_throws([](ChaosConfig& c) { c.reorder_weight = -1; },
                "negative reorder_weight");
  expect_throws([](ChaosConfig& c) { c.skew_weight = -1; },
                "negative skew_weight");
  expect_throws([](ChaosConfig& c) { c.cpu_factor = 0; }, "cpu factor zero");
  expect_throws([](ChaosConfig& c) { c.flap_period = 0; },
                "flap period zero");
  expect_throws([](ChaosConfig& c) { c.dup_echo = -1; },
                "negative dup echo");
  expect_throws([](ChaosConfig& c) { c.reorder_jitter = 0; },
                "reorder jitter zero");
  expect_throws([](ChaosConfig& c) { c.skew_rate_lo = 0; },
                "skew rate lo zero");
  expect_throws([](ChaosConfig& c) { c.skew_rate_hi = c.skew_rate_lo / 2; },
                "skew hi below lo");
  // The message names the offending knob.
  ChaosConfig bad = gray_config();
  bad.min_heal = 0;
  try {
    bad.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("min_heal"), std::string::npos)
        << "unhelpful message: " << e.what();
  }
}

TEST(ChaosConfigValidate, AcceptsDisabledAndDegenerateButConsistentKnobs) {
  // Zero rate and all-zero weights are VALID (they mean "no storm") — only
  // inconsistent knobs throw.
  ChaosConfig cfg = test_config();
  cfg.events_per_s = 0;
  EXPECT_NO_THROW(cfg.validate());
  cfg = test_config();
  cfg.crash_weight = cfg.sever_weight = 0;
  EXPECT_NO_THROW(cfg.validate());
  // Gray parameter checks only bind when their kind is enabled.
  cfg = test_config();
  cfg.flap_period = 0;
  cfg.reorder_jitter = 0;
  cfg.cpu_factor = 0;
  cfg.skew_rate_lo = 0;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ChaosScheduleGenerator, DegenerateInputsYieldEmptySchedules) {
  ChaosConfig cfg = test_config();
  ChaosScheduleGenerator gen(1);
  EXPECT_TRUE(gen.generate(cfg, {}).empty());
  cfg.events_per_s = 0;
  EXPECT_TRUE(gen.generate(cfg, test_nodes()).empty());
  cfg = test_config();
  cfg.crash_weight = 0;
  cfg.sever_weight = 0;
  EXPECT_TRUE(gen.generate(cfg, test_nodes()).empty());
  // Crash-only storms on a single node are legal (sever needs two nodes).
  cfg = test_config();
  cfg.sever_weight = 0;
  const FaultSchedule s = gen.generate(cfg, {5});
  for (const FaultEvent& ev : s.events())
    EXPECT_TRUE(ev.kind == FaultEvent::Kind::kCrash ||
                ev.kind == FaultEvent::Kind::kRecover);
}

}  // namespace
}  // namespace canopus::simnet
