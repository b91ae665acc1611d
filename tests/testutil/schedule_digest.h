// A digest of a FaultSchedule's exact bits: FNV-1a over every event's
// (at, kind, a, b, x, d), in schedule order. Tests pin it so that a change
// to the fault plane provably leaves lowered scenarios and generated storms
// bit-identical.
#pragma once

#include <bit>
#include <cstdint>

#include "simnet/fault_schedule.h"

namespace canopus::testutil {

inline constexpr std::uint64_t kScheduleDigestSeed = 0xcbf29ce484222325ULL;

/// Folds `s` into `h`; chain calls to digest several schedules in order.
inline std::uint64_t schedule_digest(const simnet::FaultSchedule& s,
                                     std::uint64_t h = kScheduleDigestSeed) {
  const auto mix = [&h](std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const simnet::FaultEvent& ev : s.events()) {
    mix(static_cast<std::uint64_t>(ev.at));
    mix(static_cast<std::uint64_t>(ev.kind));
    mix(ev.a);
    mix(ev.b);
    mix(std::bit_cast<std::uint64_t>(ev.x));
    mix(static_cast<std::uint64_t>(ev.d));
  }
  mix(s.events().size());
  return h;
}

}  // namespace canopus::testutil
