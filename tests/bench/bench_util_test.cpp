// The bench Harness: CLI parsing and the BENCH_*.json emission contract
// that scripts/validate_bench_json.py and downstream tooling rely on.
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace canopus::bench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    ptrs.push_back(const_cast<char*>("bench"));
    for (auto& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(Harness, ParsesFlagsAndEmitsSchemaV1Json) {
  const std::string path = ::testing::TempDir() + "bench_util_test_out.json";
  Argv a({"--threads=3", "--full", "--json=" + path});
  Harness h(a.argc(), a.argv(), "testfig", "A \"quoted\" title", "Sec 0");
  EXPECT_TRUE(h.full());
  EXPECT_EQ(h.pool().threads(), 3u);

  workload::Measurement m;
  m.offered = 1'000.5;
  m.throughput = 900.25;
  m.median = 2 * kMillisecond;
  m.p99 = 5 * kMillisecond;
  m.mean = 2.5 * kMillisecond;
  m.completed = 1234;
  workload::SearchResult res;
  res.sweep = {m, m};
  res.max = m;
  h.add_series("series one\n").attr("system", "Canopus").scalar("nodes", 9)
      .search(res)
      .point("at_70pct_of_max", m);
  h.add_series("empty series");  // no sweep, no max
  h.add_scalar("shape_ratio", 3.25);
  ASSERT_EQ(h.finish(), 0);

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\":\"canopus-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"figure\":\"testfig\""), std::string::npos);
  EXPECT_NE(json.find("\"title\":\"A \\\"quoted\\\" title\""),
            std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"threads\":3"), std::string::npos);
  EXPECT_NE(json.find("\"wall_clock_seconds\":"), std::string::npos);
  EXPECT_NE(json.find("\"events_processed\":"), std::string::npos);
  EXPECT_NE(json.find("\"events_per_second\":"), std::string::npos);
  EXPECT_NE(json.find("\"heap_allocations\":"), std::string::npos);
  EXPECT_NE(json.find("\"allocs_per_event\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"series one\\n\""), std::string::npos);
  EXPECT_NE(json.find("\"system\":\"Canopus\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":9"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"median_ns\":2000000"), std::string::npos);
  EXPECT_NE(json.find("\"at_70pct_of_max\""), std::string::npos);
  EXPECT_NE(json.find("\"max\":null"), std::string::npos);  // empty series
  EXPECT_NE(json.find("\"shape_ratio\":3.25"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Harness, DefaultsAreQuickModeAndFigureNamedJson) {
  Argv a({});
  // Write into a temp dir so the default path does not pollute the cwd:
  // default json path is relative, so chdir-free check of the name only.
  Harness h(a.argc(), a.argv(), "figx", "t", "r");
  EXPECT_FALSE(h.full());
  EXPECT_TRUE(h.quick());
  EXPECT_GE(h.pool().threads(), 1u);
}

workload::Measurement point(double offered, double throughput, Time median) {
  workload::Measurement m;
  m.offered = offered;
  m.throughput = throughput;
  m.median = median;
  return m;
}

TEST(MaxHealthy, LargestTimelyCompletePointWins) {
  const std::vector<workload::Measurement> sweep{
      point(1'000, 1'000, 2 * kMillisecond),
      point(2'000, 1'950, 5 * kMillisecond),  // 97.5% complete, at the bound
      point(4'000, 3'900, 6 * kMillisecond),  // too slow
  };
  EXPECT_EQ(max_healthy(sweep, 5 * kMillisecond), 1'950);
  EXPECT_EQ(max_healthy(sweep, 5 * kMillisecond - 1), 1'000);
}

TEST(MaxHealthy, CollapsedPointNeverCounts) {
  // Nothing completed: the median reads 0 and passes any latency bound.
  const std::vector<workload::Measurement> sweep{
      point(1'000, 1'000, 2 * kMillisecond),
      point(8'000, 0, 0),
      point(16'000, 12'000, kMillisecond),  // 75% complete
  };
  EXPECT_EQ(max_healthy(sweep, 10 * kMillisecond), 1'000);
}

TEST(MaxHealthy, NothingQualifiesGivesZero) {
  EXPECT_EQ(max_healthy({}, kSecond), 0);
  EXPECT_EQ(max_healthy({point(1'000, 1'000, 20 * kMillisecond),
                         point(2'000, 100, kMillisecond)},
                        10 * kMillisecond),
            0);
}

}  // namespace
}  // namespace canopus::bench
