// Priority event queue with O(log n) schedule/pop and O(1) cancellation.
//
// Ordering: events fire in (time, seq) order. The queue imposes no policy
// on seq beyond uniqueness — callers choose the discipline:
//
//  * standalone use (tests, microbenches, and each ThreadedRuntime node's
//    timers): the internal monotonic counter (the schedule(Time, fn)
//    overloads) gives plain schedule-order ties;
//  * sharded simulation: the Simulator passes EXTERNAL seqs of the form
//    (lane << 40) | per-lane-counter, where a lane is one node, one link,
//    or the control plane, and each lane's counter is only ever advanced by
//    the shard that owns the lane. Because a lane's counter sequence
//    depends only on that lane's own execution history, the (time, seq)
//    total order — and therefore the cross-SHARD tie-break at equal times:
//    lower lane first, then lower per-lane counter — is identical whether
//    the shards run serially on one queue or in parallel on many, which is
//    what makes the PDES backend bit-identical to the serial kernel
//    (DESIGN.md §10; tested in tests/simnet/event_queue_test.cpp and
//    tests/workload/pdes_determinism_test.cpp).
//
// Two event kinds share one deterministic firing order:
//
//  * closure events — an InlineFn timer callback (64-byte inline storage,
//    see inline_fn.h); the protocol timer currency. These are cancellable,
//    so their bodies live in a recycled slot vector (no per-event map
//    allocation) and the closure heap holds plain {time, seq, slot}
//    records. Cancellation disarms the slot immediately (freeing the
//    closure) and leaves a stale heap record behind; stale records are
//    skipped at pop and compacted away whenever they outnumber live ones,
//    so arm/cancel churn — e.g. a pipeline timer re-armed every cycle —
//    keeps both the heap and the slot storage bounded at O(live events).
//
//  * message events — a pooled MessageEvent record: a Message plus which
//    stage of the network pipeline (hop / deliver / dispatch) it is in.
//    Network schedules every per-message step as one of these. Message
//    events are never cancelled (a crashed receiver is checked at dispatch
//    time), so they skip the slot indirection entirely and live directly
//    in their own heap — the steady-state message path is two vector
//    operations and zero heap allocations.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "simnet/inline_fn.h"
#include "simnet/message.h"

namespace canopus::simnet {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

struct MessageEvent;

/// Executes popped MessageEvents. Network is the implementation; the
/// indirection keeps the kernel (queue + simulator) free of any network
/// dependency.
class MessageEventTarget {
 public:
  virtual void on_message_event(MessageEvent&& ev) = 0;

 protected:
  ~MessageEventTarget() = default;
};

/// One scheduled step of a message's journey through the network, as plain
/// data: no closure, no allocation. `hop` is the index into the message's
/// routed path (meaningful for kHop only).
struct MessageEvent {
  enum class Kind : std::uint8_t {
    kHop,      ///< arrival at path link `hop` (past the end: destination)
    kDeliver,  ///< local hand-off reaching the receiver (skips links)
    kDispatch, ///< receiver CPU done; invoke the process handler
  };

  MessageEventTarget* target = nullptr;
  Message msg;
  Kind kind = Kind::kHop;
  std::uint32_t hop = 0;

  /// Releases the payload reference.
  void reset() {
    target = nullptr;
    msg = Message();
  }
};

class EventQueue {
 public:
  // The schedule/fire pair runs millions of times per trial; the hot
  // members are defined inline (bottom of this header) so Network's and
  // Simulator's loops inline them across the TU boundary.

  /// Schedules `fn` at absolute time `t` with an explicit tie-break
  /// sequence number (see the header comment for the discipline). `seq`
  /// must be unique among pending events and nonzero (0 marks disarmed
  /// slots internally).
  EventId schedule(Time t, std::uint64_t seq, InlineFn fn);

  /// Convenience for standalone use: ties fire in schedule order via the
  /// queue-local counter. Do not mix with external seqs.
  EventId schedule(Time t, InlineFn fn) {
    return schedule(t, next_seq_++, std::move(fn));
  }

  /// Schedules a typed message event at absolute time `t`; same ordering
  /// guarantees as schedule(). Message events are not cancellable (and
  /// return no id): they bypass the slot machinery and live directly in
  /// the message heap — no per-event allocation at steady state.
  void schedule_message(Time t, std::uint64_t seq, MessageEvent&& ev);

  void schedule_message(Time t, MessageEvent&& ev) {
    schedule_message(t, next_seq_++, std::move(ev));
  }

  /// Cancels a pending closure event; cancelling an already-fired or
  /// invalid id is a no-op. (Ids carry a per-slot generation, so a stale id
  /// can only collide with a later event after 2^32 reuses of one slot.)
  void cancel(EventId id);

  bool empty() const { return live_ == 0 && msg_heap_.empty(); }
  std::size_t size() const { return live_ + msg_heap_.size(); }

  /// Time of the earliest pending event. Precondition: !empty().
  Time next_time();

  /// (time, seq) of the earliest pending event — the run loops use this to
  /// merge several queues (shards + control plane) into one total order.
  /// Precondition: !empty().
  struct Key {
    Time time;
    std::uint64_t seq;
    friend bool operator<(const Key& a, const Key& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  Key next_key();

  /// Pops the earliest pending event, stores its time into `now` (before
  /// the handler runs, so handlers observe the advanced clock), and
  /// executes it in place — one move out of storage, no intermediate
  /// record. The only way an event fires. Precondition: !empty().
  void fire_next(Time& now);

  /// Diagnostics: closure-heap records currently held, including
  /// not-yet-compacted cancelled ones. Lazy compaction bounds this at
  /// O(size()).
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;   ///< schedule order; unique, so the order is total
    std::uint32_t slot;
  };
  struct Later {  // std::greater-style comparator for a min-heap
    bool operator()(const Entry& a, const Entry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Slot {
    InlineFn fn;
    std::uint64_t seq = 0;   ///< seq of the armed event, 0 when disarmed
    std::uint32_t gen = 0;   ///< bumped on every disarm; validates EventIds
  };
  /// Message events carry their record in the heap entry itself: they are
  /// never cancelled, so no slot/generation indirection is needed and the
  /// whole record stays in one contiguous array.
  struct MsgEntry {
    Time time;
    std::uint64_t seq;
    MessageEvent ev;
  };
  static bool msg_before(const MsgEntry& a, const MsgEntry& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  /// THE cross-heap tie-break: whether the closure at the top of `heap_`
  /// fires before the message at the top of `msg_heap_`. Every consumer
  /// (fire_next, next_time, next_key) must use this one definition — the
  /// deterministic total order depends on them agreeing exactly.
  static bool closure_first(const Entry& c, const MsgEntry& m) {
    return c.time != m.time ? c.time < m.time : c.seq < m.seq;
  }

  bool entry_live(const Entry& e) const { return slots_[e.slot].seq == e.seq; }
  void disarm(std::uint32_t slot);
  void compact();
  void skip_cancelled();
  void fire_closure(Time& now);
  void fire_message(Time& now);

  std::vector<Entry> heap_;          ///< closure events (min-heap, Later)
  std::vector<MsgEntry> msg_heap_;   ///< message events (min-heap, msg_before)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< disarmed slots ready for reuse
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;             ///< live closure events
};

// --- hot-path inline definitions -------------------------------------------

inline void EventQueue::disarm(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();  // release the closure now, not at compaction
  s.seq = 0;
  ++s.gen;
  free_.push_back(slot);
  --live_;
}

inline void EventQueue::skip_cancelled() {
  while (!heap_.empty() && !entry_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

inline EventId EventQueue::schedule(Time t, std::uint64_t seq, InlineFn fn) {
  assert(seq != 0);
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  heap_.push_back(Entry{t, s.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  // An EventId packs {generation, slot+1}; slot+1 keeps every valid id
  // nonzero so kInvalidEvent (0) can never name a slot. The slot index is
  // confined to 24 bits so the Simulator can tag the owning queue (shard
  // index or control plane) in the id's top byte and route cancel() without
  // a lookup; 2^24 simultaneously-armed timers per shard is far beyond any
  // simulated workload, and the assert guards the day that changes.
  assert(slot < (1u << 24) - 1);
  return (static_cast<EventId>(s.gen) << 24) | (slot + 1);
}

inline void EventQueue::schedule_message(Time t, std::uint64_t seq,
                                         MessageEvent&& ev) {
  // Hand-rolled sift-up: the standard push_heap routes the new entry
  // through a temporary even when it already sits in heap position — and a
  // MsgEntry move is 56 bytes. Events are mostly scheduled in near-time
  // order, so the early-out is the common path.
  msg_heap_.push_back(MsgEntry{t, seq, std::move(ev)});
  std::size_t i = msg_heap_.size() - 1;
  if (i == 0 || !msg_before(msg_heap_[i], msg_heap_[(i - 1) / 2])) return;
  MsgEntry v = std::move(msg_heap_[i]);
  do {
    const std::size_t p = (i - 1) / 2;
    msg_heap_[i] = std::move(msg_heap_[p]);
    i = p;
  } while (i > 0 && msg_before(v, msg_heap_[(i - 1) / 2]));
  msg_heap_[i] = std::move(v);
}

inline Time EventQueue::next_time() {
  skip_cancelled();
  assert(!empty());
  if (heap_.empty()) return msg_heap_.front().time;
  if (msg_heap_.empty()) return heap_.front().time;
  return closure_first(heap_.front(), msg_heap_.front())
             ? heap_.front().time
             : msg_heap_.front().time;
}

inline EventQueue::Key EventQueue::next_key() {
  skip_cancelled();
  assert(!empty());
  if (heap_.empty())
    return Key{msg_heap_.front().time, msg_heap_.front().seq};
  if (msg_heap_.empty()) return Key{heap_.front().time, heap_.front().seq};
  return closure_first(heap_.front(), msg_heap_.front())
             ? Key{heap_.front().time, heap_.front().seq}
             : Key{msg_heap_.front().time, msg_heap_.front().seq};
}

inline void EventQueue::fire_closure(Time& now) {
  const Entry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  now = top.time;
  // Move the closure out before invoking: the handler may schedule, which
  // can grow slots_ and invalidate the reference.
  InlineFn fn = std::move(slots_[top.slot].fn);
  disarm(top.slot);
  fn();
}

inline void EventQueue::fire_message(Time& now) {
  // Hand-rolled root removal (extract root, sift the tail down) — one
  // 56-byte move when the heap is small, where the standard
  // pop_heap+pop_back pair costs three.
  MsgEntry entry = std::move(msg_heap_.front());
  const std::size_t n = msg_heap_.size() - 1;
  if (n > 0) {
    MsgEntry tail = std::move(msg_heap_.back());
    msg_heap_.pop_back();
    std::size_t i = 0;
    while (true) {
      std::size_t kid = 2 * i + 1;
      if (kid >= n) break;
      if (kid + 1 < n && msg_before(msg_heap_[kid + 1], msg_heap_[kid]))
        ++kid;
      if (!msg_before(msg_heap_[kid], tail)) break;
      msg_heap_[i] = std::move(msg_heap_[kid]);
      i = kid;
    }
    msg_heap_[i] = std::move(tail);
  } else {
    msg_heap_.pop_back();
  }
  now = entry.time;
  entry.ev.target->on_message_event(std::move(entry.ev));
}

inline void EventQueue::fire_next(Time& now) {
  assert(!empty());
  // Earliest of the two heaps; the shared seq makes the merge a total
  // order identical to a single queue's. Stale (cancelled) records only
  // exist in the closure heap, so the message fast path skips the scan.
  if (heap_.empty()) return fire_message(now);
  skip_cancelled();
  if (heap_.empty()) return fire_message(now);
  if (msg_heap_.empty()) return fire_closure(now);
  return closure_first(heap_.front(), msg_heap_.front()) ? fire_closure(now)
                                                         : fire_message(now);
}

}  // namespace canopus::simnet
