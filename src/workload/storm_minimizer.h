// StormMinimizer: ddmin delta debugging over chaos storms (DESIGN.md §13).
//
// A red chaos grid point hands the operator a storm of dozens of
// fault/repair pairs, almost all of which are noise. The minimizer shrinks
// it to a locally-minimal sub-storm that still trips an oracle (normally
// "the grid point's audited trial, with this schedule armed instead,
// reports violations"), in two passes:
//
//  1. Event-subset removal — classic ddmin (Zeller & Hildebrandt) over
//     *units*, where a unit is a fault together with its matching repair
//     (removing a crash but keeping its recover would probe schedules the
//     generator can never emit). Try n subsets, then their complements;
//     on success recurse into the smaller schedule, otherwise double the
//     granularity. The result is 1-minimal at unit granularity: removing
//     any single remaining unit makes the violation vanish.
//  2. Duration shrinking — for each surviving unit, repeatedly halve the
//     repair's distance from its fault (floored at `min_duration`) while
//     the oracle still fires. Runs after removal on purpose: shorter
//     faults are weaker, so shrinking first would mask removable units.
//
// Probes are full deterministic trials, so the whole reduction is itself
// deterministic: same storm + same oracle => same minimal schedule. The
// minimal storm serializes as a replayable JSON artifact
// (canopus-storm-v1) that bench_chaos --minimize emits and
// scripts/validate_bench_json.py checks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "simnet/fault_schedule.h"

namespace canopus::workload {

struct MinimizeOptions {
  bool shrink_durations = true;
  /// Floor on fault duration during shrinking (also the shrink
  /// granularity: a pass stops once the fault->repair gap reaches it).
  Time min_duration = kMillisecond;
};

struct MinimizeResult {
  /// False when the oracle rejected the *full* storm — nothing to
  /// minimize (the caller's grid point was green, or the oracle is
  /// mis-wired). `minimal` then holds the untouched input.
  bool reproduced = false;
  simnet::FaultSchedule minimal;
  std::size_t original_events = 0;
  std::size_t minimal_events = 0;
  std::size_t probes = 0;           ///< oracle calls actually spent
  std::size_t duration_shrinks = 0; ///< accepted repair-time halvings
};

class StormMinimizer {
 public:
  /// Returns true when the candidate schedule still reproduces the
  /// failure. Must be deterministic and must not retain the reference.
  using Oracle = std::function<bool(const simnet::FaultSchedule&)>;

  /// Probe budget across both passes; each probe is one oracle call (one
  /// full trial for the real oracle). ddmin on a k-unit storm needs
  /// O(k log k) probes when most units are noise, worst-case O(k^2).
  static constexpr std::size_t kMaxProbes = 400;

  explicit StormMinimizer(Oracle oracle, MinimizeOptions opt = {})
      : oracle_(std::move(oracle)), opt_(opt) {}

  MinimizeResult minimize(const simnet::FaultSchedule& storm) {
    probes_ = 0;
    MinimizeResult res;
    res.original_events = storm.events().size();

    // `events` keeps the original (time-sorted) order; units hold indices
    // into it and rebuilds filter + re-sort, so candidate schedules are
    // exactly "the storm with some fault/repair pairs deleted".
    std::vector<simnet::FaultEvent> events = storm.events();
    std::vector<Unit> units = make_units(events);

    if (!probe(storm)) {
      res.minimal = storm;
      res.minimal_events = events.size();
      res.probes = probes_;
      return res;
    }
    res.reproduced = true;

    std::vector<std::size_t> kept = ddmin(events, units);
    if (opt_.shrink_durations)
      res.duration_shrinks = shrink(events, units, kept);

    const std::vector<simnet::FaultEvent> final_events =
        rebuild(events, units, kept);
    for (const simnet::FaultEvent& ev : final_events) res.minimal.add(ev);
    res.minimal_events = final_events.size();
    res.probes = probes_;
    return res;
  }

 private:
  /// One removable unit: the event indices of a fault and its matching
  /// repair. Unpaired events (a storm truncated by hand) become singleton
  /// units, so the minimizer still accepts them.
  struct Unit {
    std::vector<std::size_t> indices;
  };

  /// Pairing key: fault family + victim. A repair closes the OLDEST open
  /// fault with its key (generator storms never nest same-key pairs, so
  /// this is exact for them).
  static std::uint64_t unit_key(const simnet::FaultEvent& ev) {
    const std::size_t family = simnet::fault_family(ev.kind);
    const std::uint64_t b =
        simnet::kFaultFamilies[family].pair ? ev.b : kInvalidNode;
    return (static_cast<std::uint64_t>(family) << 56) ^
           (static_cast<std::uint64_t>(ev.a) << 24) ^ b;
  }

  static std::vector<Unit> make_units(
      const std::vector<simnet::FaultEvent>& events) {
    std::vector<Unit> units;
    std::vector<std::pair<std::uint64_t, std::size_t>> open;  // key -> unit
    for (std::size_t i = 0; i < events.size(); ++i) {
      const std::uint64_t key = unit_key(events[i]);
      if (!simnet::is_repair(events[i].kind)) {
        units.push_back({{i}});
        open.emplace_back(key, units.size() - 1);
      } else {
        auto it = std::find_if(open.begin(), open.end(),
                               [key](const auto& o) { return o.first == key; });
        if (it != open.end()) {
          units[it->second].indices.push_back(i);
          open.erase(it);
        } else {
          units.push_back({{i}});
        }
      }
    }
    return units;
  }

  static std::vector<std::size_t> all_of(std::size_t n) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = i;
    return v;
  }

  /// Filters the original event list down to the kept units and re-sorts
  /// by time (stable, so the generator's repairs-first tie order
  /// survives). Re-sorting matters once shrink() moves repair times.
  static std::vector<simnet::FaultEvent> rebuild(
      const std::vector<simnet::FaultEvent>& events,
      const std::vector<Unit>& units, const std::vector<std::size_t>& kept) {
    std::vector<char> keep(events.size(), 0);
    for (std::size_t u : kept)
      for (std::size_t i : units[u].indices) keep[i] = 1;
    std::vector<simnet::FaultEvent> out;
    for (std::size_t i = 0; i < events.size(); ++i)
      if (keep[i]) out.push_back(events[i]);
    std::stable_sort(out.begin(), out.end(),
                     [](const simnet::FaultEvent& x,
                        const simnet::FaultEvent& y) { return x.at < y.at; });
    return out;
  }

  bool probe(const simnet::FaultSchedule& candidate) {
    ++probes_;
    return oracle_(candidate);
  }

  bool probe_units(const std::vector<simnet::FaultEvent>& events,
                   const std::vector<Unit>& units,
                   const std::vector<std::size_t>& kept) {
    simnet::FaultSchedule candidate;
    for (const simnet::FaultEvent& ev : rebuild(events, units, kept))
      candidate.add(ev);
    return probe(candidate);
  }

  /// Classic ddmin over unit ids. Returns the kept (1-minimal) subset.
  std::vector<std::size_t> ddmin(const std::vector<simnet::FaultEvent>& events,
                                 const std::vector<Unit>& units) {
    std::vector<std::size_t> cur = all_of(units.size());
    std::size_t n = 2;
    while (cur.size() >= 2 && probes_ < kMaxProbes) {
      const std::size_t len = cur.size();
      bool reduced = false;
      // Subsets: does one n-th of the storm already violate?
      for (std::size_t i = 0; i < n && !reduced; ++i) {
        if (probes_ >= kMaxProbes) break;
        std::vector<std::size_t> sub(cur.begin() + (i * len) / n,
                                     cur.begin() + ((i + 1) * len) / n);
        if (sub.empty() || sub.size() == len) continue;
        if (probe_units(events, units, sub)) {
          cur = std::move(sub);
          n = 2;
          reduced = true;
        }
      }
      // Complements: can one n-th be removed? (At n == 2 a complement IS
      // the other subset, already probed above.)
      if (!reduced && n > 2) {
        for (std::size_t i = 0; i < n && !reduced; ++i) {
          if (probes_ >= kMaxProbes) break;
          std::vector<std::size_t> rest(cur.begin(), cur.begin() + (i * len) / n);
          rest.insert(rest.end(), cur.begin() + ((i + 1) * len) / n, cur.end());
          if (rest.empty() || rest.size() == len) continue;
          if (probe_units(events, units, rest)) {
            cur = std::move(rest);
            n = n > 3 ? n - 1 : 2;
            reduced = true;
          }
        }
      }
      if (!reduced) {
        if (n >= cur.size()) break;  // 1-minimal at unit granularity
        n = std::min(n * 2, cur.size());
      }
    }
    return cur;
  }

  /// Halves each surviving fault's duration toward `min_duration` while
  /// the oracle still fires. Mutates repair times in `events` in place (the
  /// kept set is fixed by now). Returns accepted halvings.
  std::size_t shrink(std::vector<simnet::FaultEvent>& events,
                     const std::vector<Unit>& units,
                     const std::vector<std::size_t>& kept) {
    std::size_t accepted = 0;
    for (std::size_t u : kept) {
      if (units[u].indices.size() != 2) continue;
      std::size_t si = units[u].indices[0], ri = units[u].indices[1];
      if (simnet::is_repair(events[si].kind)) std::swap(si, ri);
      while (probes_ < kMaxProbes) {
        const Time gap = events[ri].at - events[si].at;
        if (gap <= opt_.min_duration) break;
        const Time cand = events[si].at + std::max(opt_.min_duration, gap / 2);
        if (cand >= events[ri].at) break;
        const Time saved = events[ri].at;
        events[ri].at = cand;
        if (probe_units(events, units, kept)) {
          ++accepted;
        } else {
          events[ri].at = saved;
          break;
        }
      }
    }
    return accepted;
  }

  Oracle oracle_;
  MinimizeOptions opt_;
  std::size_t probes_ = 0;
};

/// Metadata stamped into the canopus-storm-v1 artifact: the grid
/// coordinates that replay the minimal storm, plus reduction stats.
struct StormJsonMeta {
  std::string system;
  std::string intensity;
  std::uint64_t seed = 0;
  double offered_rate = 0;
  bool reproduced = false;
  std::size_t original_events = 0;
  std::size_t probes = 0;
  std::size_t duration_shrinks = 0;
};

/// A canopus-storm-v1 artifact read back from disk: the schedule plus the
/// grid coordinates needed to replay it.
struct LoadedStorm {
  std::string system;
  std::string intensity;
  std::uint64_t seed = 0;
  double offered_rate = 0;
  simnet::FaultSchedule storm;
};

/// Parses a canopus-storm-v1 document (the exact shape storm_to_json
/// emits; whitespace-tolerant). Returns false on schema mismatch or any
/// malformed field — a truncated artifact must fail loudly, not replay a
/// partial storm. Hand-rolled against the fixed schema: flat meta fields
/// plus one array of flat event objects, so no general JSON machinery is
/// needed (and none is available in-tree).
inline bool storm_from_json(const std::string& text, LoadedStorm* out) {
  // --- scanning helpers over the raw document ---------------------------
  const auto find_key = [&](const std::string& key, std::size_t from,
                            std::size_t* val_begin) {
    const std::string needle = "\"" + key + "\"";
    std::size_t p = text.find(needle, from);
    if (p == std::string::npos) return false;
    p = text.find(':', p + needle.size());
    if (p == std::string::npos) return false;
    ++p;
    while (p < text.size() && (text[p] == ' ' || text[p] == '\n' ||
                               text[p] == '\t' || text[p] == '\r'))
      ++p;
    *val_begin = p;
    return true;
  };
  const auto read_string = [&](std::size_t p, std::string* s) {
    if (p >= text.size() || text[p] != '"') return false;
    s->clear();
    for (++p; p < text.size(); ++p) {
      if (text[p] == '\\' && p + 1 < text.size()) {
        s->push_back(text[++p]);
      } else if (text[p] == '"') {
        return true;
      } else {
        s->push_back(text[p]);
      }
    }
    return false;  // unterminated
  };
  const auto read_number = [&](std::size_t p, double* v) {
    char* end = nullptr;
    *v = std::strtod(text.c_str() + p, &end);
    return end != text.c_str() + p;
  };

  std::size_t p = 0;
  std::string schema;
  if (!find_key("schema", 0, &p) || !read_string(p, &schema) ||
      schema != "canopus-storm-v1")
    return false;
  if (!find_key("system", 0, &p) || !read_string(p, &out->system))
    return false;
  if (!find_key("intensity", 0, &p) || !read_string(p, &out->intensity))
    return false;
  double num = 0;
  if (!find_key("seed", 0, &p) || !read_number(p, &num)) return false;
  out->seed = static_cast<std::uint64_t>(num);
  if (!find_key("offered_rate", 0, &p) || !read_number(p, &num)) return false;
  out->offered_rate = num;

  std::size_t arr = 0;
  if (!find_key("events", 0, &arr) || text[arr] != '[') return false;
  const std::size_t arr_end = text.find(']', arr);
  if (arr_end == std::string::npos) return false;

  std::size_t cur = arr + 1;
  while (true) {
    const std::size_t obj = text.find('{', cur);
    if (obj == std::string::npos || obj > arr_end) break;
    const std::size_t obj_end = text.find('}', obj);
    if (obj_end == std::string::npos || obj_end > arr_end) return false;

    simnet::FaultEvent ev;
    std::string kind;
    double at = 0, a = 0, b = 0, x = 0, d = 0;
    std::size_t q = 0;
    if (!find_key("at_ns", obj, &q) || q > obj_end || !read_number(q, &at))
      return false;
    if (!find_key("kind", obj, &q) || q > obj_end || !read_string(q, &kind) ||
        !simnet::fault_kind_parse(kind, &ev.kind))
      return false;
    if (!find_key("a", obj, &q) || q > obj_end || !read_number(q, &a))
      return false;
    if (!find_key("b", obj, &q) || q > obj_end || !read_number(q, &b))
      return false;
    if (!find_key("x", obj, &q) || q > obj_end || !read_number(q, &x))
      return false;
    if (!find_key("d_ns", obj, &q) || q > obj_end || !read_number(q, &d))
      return false;
    ev.at = static_cast<Time>(at);
    ev.a = static_cast<NodeId>(a);
    ev.b = b < 0 ? kInvalidNode : static_cast<NodeId>(b);
    ev.x = x;
    ev.d = static_cast<Time>(d);
    out->storm.add(ev);
    cur = obj_end + 1;
  }
  return true;
}

/// Serializes a (minimal) storm as a replayable canopus-storm-v1 JSON
/// document. Doubles print with %.17g so a schedule re-parsed from the
/// artifact is bit-identical to the one that tripped the oracle.
inline void storm_to_json(std::FILE* f, const simnet::FaultSchedule& storm,
                          const StormJsonMeta& meta) {
  auto str = [f](const std::string& s) {
    std::fputc('"', f);
    for (const char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f);
      std::fputc(c, f);
    }
    std::fputc('"', f);
  };
  std::fputs("{\"schema\":\"canopus-storm-v1\",\"system\":", f);
  str(meta.system);
  std::fputs(",\"intensity\":", f);
  str(meta.intensity);
  std::fprintf(f,
               ",\"seed\":%llu,\"offered_rate\":%.17g,\"reproduced\":%s,"
               "\"original_events\":%zu,\"minimal_events\":%zu,"
               "\"probes\":%zu,\"duration_shrinks\":%zu,\"events\":[",
               static_cast<unsigned long long>(meta.seed), meta.offered_rate,
               meta.reproduced ? "true" : "false", meta.original_events,
               storm.events().size(), meta.probes, meta.duration_shrinks);
  for (std::size_t i = 0; i < storm.events().size(); ++i) {
    const simnet::FaultEvent& ev = storm.events()[i];
    std::fprintf(f,
                 "%s{\"at_ns\":%lld,\"kind\":\"%s\",\"a\":%lld,\"b\":%lld,"
                 "\"x\":%.17g,\"d_ns\":%lld}",
                 i == 0 ? "" : ",", static_cast<long long>(ev.at),
                 simnet::fault_kind_name(ev.kind),
                 static_cast<long long>(ev.a),
                 ev.b == kInvalidNode ? -1LL : static_cast<long long>(ev.b),
                 ev.x, static_cast<long long>(ev.d));
  }
  std::fputs("]}\n", f);
}

}  // namespace canopus::workload
