// Hierarchical timer wheel for the threaded runtime (DESIGN.md §12).
//
// One wheel per node thread, owner-threaded (no synchronization): the node
// arms timers from its own handlers, and its drain loop advances the wheel
// between mailbox polls. Replaces the simulator's global EventQueue on the
// threaded backend, where there is no total event order to maintain — each
// node only needs "fire my closures at roughly the right wall-clock time".
//
// Layout: kLevels levels of kSlots slots. Level 0 slots are one tick
// (2^kTickBits ns ≈ 8.2 us — finer than thread wakeup jitter, far coarser
// than the ~100 ns arm cost) and each higher level is kSlots times coarser;
// five levels cover ~2.5 hours, beyond which a timer parks in the top
// level and re-cascades. Cells are preallocated and free-listed, so
// steady-state arm/fire/cancel performs zero heap allocations (the cell
// array grows — allocating — only if more timers are simultaneously armed
// than ever before). Cancellation is O(1): cells are doubly linked, and
// EventIds carry a generation like the EventQueue's ((gen << 24) | idx+1)
// so a stale cancel of a fired-and-recycled cell is ignored.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "simnet/event_queue.h"  // EventId, kInvalidEvent, InlineFn

namespace canopus::runtime {

class TimerWheel {
 public:
  static constexpr int kTickBits = 13;  ///< 8192 ns per level-0 tick
  static constexpr int kSlotBits = 6;   ///< 64 slots per level
  static constexpr int kLevels = 5;
  static constexpr std::uint64_t kSlots = 1ull << kSlotBits;

  explicit TimerWheel(Time start = 0, std::size_t reserve_cells = 256)
      : cur_tick_(to_tick(start)) {
    for (List& l : slots_) l = {};
    cells_.reserve(reserve_cells);
    grow(reserve_cells);
  }

  /// Arms `fn` to fire once `now` reaches `when` (absolute ns). Due-or-past
  /// deadlines fire on the next advance() call.
  simnet::EventId arm(Time when, simnet::InlineFn fn) {
    const std::uint32_t idx = alloc_cell();
    Cell& c = cells_[idx];
    c.when = when;
    c.fn = std::move(fn);
    link(idx, slot_for(when));
    ++armed_;
    return (static_cast<simnet::EventId>(c.gen) << 24) | (idx + 1);
  }

  /// Cancels an armed timer; ignores kInvalidEvent, already-fired and
  /// already-cancelled ids (generation check), like EventQueue::cancel.
  void cancel(simnet::EventId id) {
    if (id == simnet::kInvalidEvent) return;
    const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xffffff) - 1;
    if (idx >= cells_.size()) return;
    Cell& c = cells_[idx];
    if (c.gen != static_cast<std::uint32_t>(id >> 24) || c.slot == kNoSlot)
      return;
    unlink(idx);
    free_cell(idx);
    --armed_;
  }

  /// Advances the wheel to `now`, firing every timer whose deadline has
  /// passed (in tick order; ties within a tick fire in arm order). Returns
  /// the number fired. Closures may re-arm or cancel freely.
  std::size_t advance(Time now) {
    std::size_t fired = 0;
    const std::uint64_t target = to_tick(now);
    while (cur_tick_ < target) {
      ++cur_tick_;
      // A level cascades when the wheel's position within it wraps to 0.
      for (int level = 1; level < kLevels; ++level) {
        if ((cur_tick_ & ((1ull << (kSlotBits * level)) - 1)) != 0) break;
        cascade(level);
      }
      fired += fire_list(static_cast<std::uint32_t>(cur_tick_ & (kSlots - 1)));
    }
    return fired;
  }

  std::size_t armed() const { return armed_; }

  /// Earliest pending deadline, or -1 with none armed. O(armed); used by
  /// idle loops deciding how long to park, not on the per-fire path.
  Time next_deadline() const {
    Time best = -1;
    for (const Cell& c : cells_)
      if (c.slot != kNoSlot && (best < 0 || c.when < best)) best = c.when;
    return best;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kMaxCells = 0xffffff;  ///< 24-bit id space

  struct Cell {
    Time when = 0;
    simnet::InlineFn fn;
    std::uint32_t next = kNil;
    std::uint32_t prev = kNil;
    std::uint32_t slot = kNoSlot;  ///< kNoSlot when free / in flight
    std::uint32_t gen = 0;
  };
  struct List {
    std::uint32_t head = kNil;
  };

  static std::uint64_t to_tick(Time t) {
    return static_cast<std::uint64_t>(t) >> kTickBits;
  }

  std::uint32_t slot_for(Time when) const {
    // Ceiling tick: the timer fires on the first tick boundary at or after
    // `when`, so it is never early in absolute ns (late by < one tick).
    const std::uint64_t tick =
        (static_cast<std::uint64_t>(when) + (1ull << kTickBits) - 1) >>
        kTickBits;
    // Never place into the past: a due timer goes to the next tick's slot.
    const std::uint64_t delta = tick > cur_tick_ ? tick - cur_tick_ : 1;
    for (int level = 0; level < kLevels; ++level) {
      if (delta < (1ull << (kSlotBits * (level + 1)))) {
        const std::uint64_t pos =
            (cur_tick_ + delta) >> (kSlotBits * level) & (kSlots - 1);
        return static_cast<std::uint32_t>(level * kSlots + pos);
      }
    }
    // Beyond the horizon: park at the furthest top-level slot; it will
    // cascade (and re-insert closer) each time the top level turns over.
    const std::uint64_t pos =
        ((cur_tick_ >> (kSlotBits * (kLevels - 1))) + kSlots - 1) &
        (kSlots - 1);
    return static_cast<std::uint32_t>((kLevels - 1) * kSlots + pos);
  }

  void link(std::uint32_t idx, std::uint32_t slot) {
    Cell& c = cells_[idx];
    c.slot = slot;
    c.prev = kNil;
    c.next = slots_[slot].head;
    if (c.next != kNil) cells_[c.next].prev = idx;
    slots_[slot].head = idx;
  }

  void unlink(std::uint32_t idx) {
    Cell& c = cells_[idx];
    if (c.prev != kNil)
      cells_[c.prev].next = c.next;
    else
      slots_[c.slot].head = c.next;
    if (c.next != kNil) cells_[c.next].prev = c.prev;
    c.slot = kNoSlot;
  }

  std::uint32_t alloc_cell() {
    if (free_ == kNil) grow(cells_.empty() ? 64 : cells_.size());
    const std::uint32_t idx = free_;
    free_ = cells_[idx].next;
    cells_[idx].next = kNil;
    return idx;
  }

  void free_cell(std::uint32_t idx) {
    Cell& c = cells_[idx];
    c.fn = simnet::InlineFn();
    c.gen++;
    c.slot = kNoSlot;
    c.next = free_;
    free_ = idx;
  }

  void grow(std::size_t by) {
    const std::size_t base = cells_.size();
    assert(base + by <= kMaxCells && "timer wheel cell space exhausted");
    cells_.resize(base + by);
    for (std::size_t i = base; i < cells_.size(); ++i) {
      cells_[i].next = free_;
      free_ = static_cast<std::uint32_t>(i);
    }
  }

  /// Re-distributes every cell in the current slot of `level` down the
  /// hierarchy (closer deadlines land in finer levels).
  void cascade(int level) {
    const std::uint64_t pos =
        cur_tick_ >> (kSlotBits * level) & (kSlots - 1);
    const std::uint32_t slot = static_cast<std::uint32_t>(level * kSlots + pos);
    std::uint32_t idx = slots_[slot].head;
    slots_[slot].head = kNil;
    while (idx != kNil) {
      const std::uint32_t next = cells_[idx].next;
      cells_[idx].slot = kNoSlot;
      link(idx, slot_for(cells_[idx].when));
      idx = next;
    }
  }

  /// Fires every cell in level-0 slot `pos` (all are due: the slot is one
  /// tick wide and the wheel just reached it). Arm order is preserved:
  /// link() prepends, so the list is walked onto a scratch stack first.
  std::size_t fire_list(std::uint32_t pos) {
    std::uint32_t idx = slots_[pos].head;
    if (idx == kNil) return 0;
    slots_[pos].head = kNil;
    scratch_.clear();
    for (; idx != kNil; idx = cells_[idx].next) scratch_.push_back(idx);
    std::size_t fired = 0;
    for (std::size_t i = scratch_.size(); i-- > 0;) {
      Cell& c = cells_[scratch_[i]];
      c.slot = kNoSlot;
      simnet::InlineFn fn = std::move(c.fn);
      free_cell(scratch_[i]);
      --armed_;
      ++fired;
      fn();  // may arm/cancel; the cell is already recycled
    }
    return fired;
  }

  std::uint64_t cur_tick_;
  std::size_t armed_ = 0;
  std::uint32_t free_ = kNil;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> scratch_;  ///< fire-order buffer, reused
  List slots_[kLevels * kSlots];
};

}  // namespace canopus::runtime
