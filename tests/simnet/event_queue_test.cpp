#include "simnet/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "simnet/payload_testing.h"

namespace canopus::simnet {
namespace {

/// Fires every pending event through fire_next, the simulator's own path.
void drain(EventQueue& q) {
  Time now = 0;
  while (!q.empty()) q.fire_next(now);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) q.schedule(5, [&order, i] { order.push_back(i); });
  drain(q);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(10, [&] { fired = true; });
  q.schedule(20, [] {});
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownIdIsNoop) {
  EventQueue q;
  q.schedule(1, [] {});
  q.cancel(999);
  q.cancel(kInvalidEvent);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelledHeadIsSkippedByNextTime) {
  EventQueue q;
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
}

TEST(EventQueue, FireNextAdvancesTheClockBeforeTheHandler) {
  EventQueue q;
  Time now = 0;
  Time seen = -1;
  q.schedule(42, [&] { seen = now; });
  q.fire_next(now);
  EXPECT_EQ(now, 42);
  EXPECT_EQ(seen, 42);  // the handler observes the advanced clock
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  EventId id = q.schedule(10, [] {});
  q.schedule(11, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ArmCancelChurnKeepsHeapBounded) {
  // The pipeline-timer pattern: arm a far-future event, cancel it, repeat.
  // The old map-backed queue left every cancelled record in the heap; the
  // slot-based queue must compact them, keeping memory at O(live events).
  EventQueue q;
  q.schedule(1'000'000, [] {});  // one long-lived event stays armed
  std::size_t max_heap = 0;
  for (int i = 0; i < 100'000; ++i) {
    EventId id = q.schedule(500'000 + i, [] {});
    q.cancel(id);
    max_heap = std::max(max_heap, q.heap_entries());
  }
  EXPECT_EQ(q.size(), 1u);
  // Compaction triggers at max(64, 2 * live): churn can never push the heap
  // past a small constant here, let alone the 100k of the old behaviour.
  EXPECT_LE(max_heap, 130u);
}

TEST(EventQueue, CancelledIdDoesNotAffectSlotReuse) {
  // A cancelled event's slot is recycled for the next schedule; the stale
  // EventId must not be able to cancel the new occupant.
  EventQueue q;
  EventId old_id = q.schedule(10, [] {});
  q.cancel(old_id);
  bool fired = false;
  q.schedule(20, [&] { fired = true; });  // reuses the slot
  q.cancel(old_id);                       // stale id: must be a no-op
  EXPECT_EQ(q.size(), 1u);
  drain(q);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, PoppedIdCannotCancelSlotSuccessor) {
  EventQueue q;
  Time now = 0;
  EventId first = q.schedule(10, [] {});
  q.fire_next(now);
  bool fired = false;
  q.schedule(20, [&] { fired = true; });
  q.cancel(first);  // already fired; its slot now belongs to the new event
  EXPECT_EQ(q.size(), 1u);
  q.fire_next(now);
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ChurnPreservesDeterministicOrder) {
  // Interleave schedules and cancels, then check the survivors fire in
  // (time, schedule-order): compaction and slot reuse must not disturb the
  // deterministic tiebreak.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  int label = 0;
  for (int round = 0; round < 200; ++round) {
    for (int j = 0; j < 4; ++j) {
      const int l = label++;
      const Time t = (l * 37) % 50;  // many time collisions
      EventId id = q.schedule(t, [&order, l] { order.push_back(l); });
      if (j % 2 == 1) cancelled.push_back(id);
    }
    if (round % 3 == 0 && !cancelled.empty()) {
      q.cancel(cancelled.back());
      cancelled.pop_back();
    }
  }
  for (EventId id : cancelled) q.cancel(id);
  Time now = -1;
  while (!q.empty()) {
    const Time prev = now;
    EXPECT_EQ(q.next_time(), q.next_key().time);
    q.fire_next(now);
    EXPECT_GE(now, prev);
  }
  // Survivors at equal times must have fired in ascending schedule order.
  // Replay: group labels by time and check each group is sorted.
  // (`order` holds the survivors in pop order.)
  for (std::size_t i = 1; i < order.size(); ++i) {
    const Time ti = (order[i] * 37) % 50;
    const Time tp = (order[i - 1] * 37) % 50;
    if (ti == tp) {
      EXPECT_LT(order[i - 1], order[i]);
    }
  }
}

// --- typed message events -------------------------------------------------

/// Records the message steps executed through it.
struct RecordingTarget : MessageEventTarget {
  struct Step {
    MessageEvent::Kind kind;
    std::uint32_t hop;
    Message msg;
  };
  std::vector<Step> fired;
  void on_message_event(MessageEvent&& ev) override {
    fired.push_back(Step{ev.kind, ev.hop, std::move(ev.msg)});
  }
};

TEST(EventQueue, MessageEventsInterleaveWithClosuresDeterministically) {
  EventQueue q;
  RecordingTarget target;
  std::vector<int> order;
  Time now = 0;
  q.schedule(10, [&] { order.push_back(0); });
  q.schedule_message(
      10, MessageEvent{&target, Message(), MessageEvent::Kind::kHop, 7});
  q.schedule(10, [&] { order.push_back(1); });
  // Equal times: schedule order wins regardless of event kind.
  q.fire_next(now);
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_TRUE(target.fired.empty());
  q.fire_next(now);
  EXPECT_EQ(order, (std::vector<int>{0}));
  ASSERT_EQ(target.fired.size(), 1u);
  EXPECT_EQ(target.fired[0].kind, MessageEvent::Kind::kHop);
  EXPECT_EQ(target.fired[0].hop, 7u);
  q.fire_next(now);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MessageEventCarriesItsFields) {
  EventQueue q;
  RecordingTarget target;
  Time now = 0;
  q.schedule_message(
      5, MessageEvent{&target, Message(3, 9, Payload::sized(1, 128)),
                      MessageEvent::Kind::kDispatch, 0});
  q.fire_next(now);
  EXPECT_EQ(now, 5);
  ASSERT_EQ(target.fired.size(), 1u);
  const RecordingTarget::Step& step = target.fired[0];
  EXPECT_EQ(step.kind, MessageEvent::Kind::kDispatch);
  EXPECT_EQ(step.msg.src(), 3u);
  EXPECT_EQ(step.msg.dst(), 9u);
  EXPECT_EQ(step.msg.wire_bytes(), 128u);
}

TEST(EventQueue, SizeAndNextTimeSpanBothEventKinds) {
  EventQueue q;
  RecordingTarget target;
  bool closure_fired = false;
  Time now = 0;
  q.schedule(20, [&] { closure_fired = true; });
  q.schedule_message(
      10, MessageEvent{&target, Message(), MessageEvent::Kind::kDeliver, 0});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 10);  // the message event is earliest
  q.fire_next(now);
  ASSERT_EQ(target.fired.size(), 1u);
  EXPECT_EQ(target.fired[0].kind, MessageEvent::Kind::kDeliver);
  EXPECT_FALSE(closure_fired);
  EXPECT_EQ(q.next_time(), 20);
  q.fire_next(now);
  EXPECT_TRUE(closure_fired);
  EXPECT_EQ(now, 20);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancellingClosuresDoesNotDisturbMessageEvents) {
  // Closure cancellation (slots, generations, lazy compaction) is invisible
  // to the message plane: messages fire in their scheduled order.
  EventQueue q;
  RecordingTarget target;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 100; ++i)
    cancelled.push_back(q.schedule(5, [] { FAIL(); }));
  for (std::uint32_t i = 0; i < 4; ++i)
    q.schedule_message(
        6, MessageEvent{&target, Message(), MessageEvent::Kind::kHop, i});
  for (EventId id : cancelled) q.cancel(id);
  EXPECT_EQ(q.size(), 4u);
  drain(q);
  ASSERT_EQ(target.fired.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(target.fired[i].hop, i);
}

// --------------------------------------------------------------------------
// Lane-sequence discipline (ISSUE 6): the sharded kernel encodes an event's
// source lane in the high bits of the explicit tie-break seq,
// (lane << 40) | per-lane-counter. These tests pin the cross-shard contract:
// at equal times, events order by lane then by per-lane schedule order, and
// that order is a property of the KEYS alone — merging several queues by
// next_key() reproduces the single-queue order exactly, which is what makes
// parallel execution bit-identical to serial.
// --------------------------------------------------------------------------

constexpr std::uint64_t lane_seq(std::uint32_t lane, std::uint64_t ctr) {
  return (static_cast<std::uint64_t>(lane) << 40) | ctr;
}

TEST(EventQueue, LaneSeqTieBreakIsInsertionOrderIndependent) {
  // Schedule equal-time events from three lanes in scrambled insertion
  // order; they must pop lane-major, counter-minor.
  EventQueue q;
  std::vector<int> order;
  auto ev = [&](int label) {
    return [&order, label] { order.push_back(label); };
  };
  q.schedule(5, lane_seq(2, 1), ev(21));
  q.schedule(5, lane_seq(0, 2), ev(2));
  q.schedule(5, lane_seq(1, 1), ev(11));
  q.schedule(5, lane_seq(0, 1), ev(1));
  q.schedule(5, lane_seq(2, 2), ev(22));
  q.schedule(5, lane_seq(1, 2), ev(12));
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 11, 12, 21, 22}));
}

TEST(EventQueue, ControlLaneLosesAllTimeTies) {
  // The simulator assigns the control plane the numerically LARGEST lane,
  // so at equal times every node/link event fires before any control
  // event — the parallel coordinator can run control events at a global
  // barrier without reordering anything.
  EventQueue q;
  std::vector<int> order;
  const std::uint32_t control = 0xFFFF;
  q.schedule(7, lane_seq(control, 1), [&] { order.push_back(99); });
  q.schedule(7, lane_seq(3, 7), [&] { order.push_back(3); });
  q.schedule(7, lane_seq(control - 1, 1), [&] { order.push_back(98); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{3, 98, 99}));
}

TEST(EventQueue, MergingQueuesByKeyReproducesSingleQueueOrder) {
  // The serial loop merges N shard queues by next_key(); the parallel
  // kernel executes each queue independently under the lookahead bound.
  // Both orders coincide because keys are globally unique and each lane
  // lives in exactly one queue. Simulate the merge over a shard split and
  // check it equals the order of one queue holding everything.
  struct Step {
    Time t;
    std::uint32_t lane;
    std::uint64_t ctr;
    int label;
  };
  const std::vector<Step> steps{
      {10, 0, 1, 1}, {10, 1, 1, 2},  {10, 2, 1, 3},  {15, 1, 2, 4},
      {15, 0, 2, 5}, {20, 2, 2, 6},  {20, 2, 3, 7},  {20, 0, 3, 8},
      {25, 1, 3, 9}, {25, 0, 4, 10}, {25, 2, 4, 11},
  };

  EventQueue all;
  std::vector<int> serial;
  for (const Step& s : steps)
    all.schedule(s.t, lane_seq(s.lane, s.ctr),
                 [&serial, label = s.label] { serial.push_back(label); });
  drain(all);

  // Shard split: lane 0 -> shard A, lanes 1 and 2 -> shard B.
  EventQueue a, b;
  std::vector<int> merged;
  for (const Step& s : steps)
    (s.lane == 0 ? a : b).schedule(
        s.t, lane_seq(s.lane, s.ctr),
        [&merged, label = s.label] { merged.push_back(label); });
  Time now = 0;
  while (!a.empty() || !b.empty()) {
    EventQueue* next;
    if (a.empty())
      next = &b;
    else if (b.empty())
      next = &a;
    else
      next = a.next_key() < b.next_key() ? &a : &b;
    next->fire_next(now);
  }

  // serial == sorted-by-(time, lane, ctr) == the cross-queue merge.
  EXPECT_EQ(serial,
            (std::vector<int>{1, 2, 3, 5, 4, 8, 6, 7, 10, 9, 11}));
  EXPECT_EQ(merged, serial);
}

TEST(EventQueue, MoveOnlyCaptureIsAccepted) {
  // std::function required copyable captures; InlineFn must not.
  EventQueue q;
  auto owned = std::make_unique<int>(7);
  int got = 0;
  q.schedule(1, [p = std::move(owned), &got] { got = *p; });
  drain(q);
  EXPECT_EQ(got, 7);
}

}  // namespace
}  // namespace canopus::simnet
