// Cold paths of the event queue; the per-event schedule/fire hot pair is
// inline in event_queue.h.
#include "simnet/event_queue.h"

namespace canopus::simnet {

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  // Id layout (see schedule()): [63..56 routing tag | 55..24 gen |
  // 23..0 slot+1]. The tag is the Simulator's business; it is stripped
  // before the id reaches this queue, so only gen/slot are parsed here.
  const auto slot = static_cast<std::uint32_t>((id & 0xffffffULL) - 1);
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  if (s.gen != static_cast<std::uint32_t>((id >> 24) & 0xffffffffULL) ||
      s.seq == 0)
    return;
  disarm(slot);
  // The heap still holds a stale record for this event. Compact once stale
  // records dominate, so cancel-heavy workloads stay at O(live) memory while
  // occasional cancels cost nothing extra.
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact();
}

void EventQueue::compact() {
  std::erase_if(heap_, [this](const Entry& e) { return !entry_live(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

}  // namespace canopus::simnet
