#include "simnet/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace canopus::simnet {
namespace {

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> seen;
  sim.at(100, [&] { seen.push_back(sim.now()); });
  sim.at(50, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<Time>{50, 100}));
}

TEST(Simulator, AfterIsRelativeToNow) {
  Simulator sim;
  Time fired = -1;
  sim.at(10, [&] { sim.after(5, [&] { fired = sim.now(); }); });
  sim.run();
  EXPECT_EQ(fired, 15);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  Time fired = -1;
  sim.at(10, [&] { sim.after(-100, [&] { fired = sim.now(); }); });
  sim.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.at(10, [&] { ++count; });
  sim.at(20, [&] { ++count; });
  sim.at(30, [&] { ++count; });
  const auto n = sim.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, SchedulingInThePastRunsImmediately) {
  Simulator sim;
  sim.run_until(100);
  Time fired = -1;
  sim.at(10, [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, 100);  // clamped to now
}

TEST(Simulator, CancelledEventDoesNotRun) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.at(10, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsProcessedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

}  // namespace
}  // namespace canopus::simnet
