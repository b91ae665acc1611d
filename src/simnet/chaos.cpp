#include "simnet/chaos.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

namespace canopus::simnet {

namespace {

/// Repairs sort before faults at equal timestamps so that replaying the
/// sorted list in order never observes more concurrent faults than the
/// generator's own bookkeeping did (a victim whose repair ties a later
/// fault's timestamp frees its blast-radius slot first). Within each half,
/// kinds sort in family-table order, so classic-only storms sort exactly as
/// they did before the gray families existed.
std::size_t kind_rank(FaultEvent::Kind k) {
  return fault_family(k) + (is_repair(k) ? 0 : kNumFaultFamilies);
}

[[noreturn]] void config_error(const std::string& what) {
  throw std::invalid_argument("ChaosConfig: " + what);
}

}  // namespace

void ChaosConfig::validate() const {
  if (end <= start) config_error("end must be after start");
  if (min_heal <= 0) config_error("min_heal must be > 0");
  if (min_heal >= end - start)
    config_error("min_heal must be < the storm window (end - start)");
  if (events_per_s < 0) config_error("events_per_s must be >= 0");
  if (mean_extra < 0) config_error("mean_extra must be >= 0");
  const std::pair<double, const char*> weights[] = {
      {crash_weight, "crash_weight"},     {sever_weight, "sever_weight"},
      {cpu_weight, "cpu_weight"},         {flap_weight, "flap_weight"},
      {dup_weight, "dup_weight"},         {reorder_weight, "reorder_weight"},
      {skew_weight, "skew_weight"},
  };
  for (const auto& [w, name] : weights)
    if (w < 0) config_error(std::string(name) + " must be >= 0");
  if (cpu_weight > 0 && cpu_factor <= 0)
    config_error("cpu_factor must be > 0 when cpu_weight is enabled");
  if (flap_weight > 0 && flap_period <= 0)
    config_error("flap_period must be > 0 when flap_weight is enabled");
  if (dup_weight > 0 && dup_echo < 0)
    config_error("dup_echo must be >= 0 when dup_weight is enabled");
  if (reorder_weight > 0 && reorder_jitter <= 0)
    config_error("reorder_jitter must be > 0 when reorder_weight is enabled");
  if (skew_weight > 0 && (skew_rate_lo <= 0 || skew_rate_hi < skew_rate_lo))
    config_error("skew rates must satisfy 0 < skew_rate_lo <= skew_rate_hi");
}

FaultSchedule ChaosScheduleGenerator::generate(
    const ChaosConfig& cfg, const std::vector<NodeId>& nodes) {
  cfg.validate();
  FaultSchedule out;
  if (nodes.empty() || cfg.events_per_s <= 0) return out;

  // The config's knobs per family, in kFaultFamilies order: the weighted
  // pick walks them front to back. `x`/`d` parameterize the fault event
  // (skew draws its rate per fault instead, and lags no fixed offset).
  struct Knobs {
    double weight;
    int cap;
    double x;
    Time d;
  };
  const Knobs knob[kNumFaultFamilies] = {
      {cfg.crash_weight, cfg.max_down, 0, 0},
      {cfg.sever_weight, cfg.max_severed, 0, 0},
      {cfg.cpu_weight, kMaxSlow, cfg.cpu_factor, 0},
      {cfg.flap_weight, kMaxFlapping, 0, cfg.flap_period},
      {cfg.dup_weight, kMaxDup, 0, cfg.dup_echo},
      {cfg.reorder_weight, kMaxReorder, 0, cfg.reorder_jitter},
      {cfg.skew_weight, kMaxSkewed, 0, 0},
  };
  double all_weight = 0;
  for (const Knobs& k : knob) all_weight += k.weight;
  if (all_weight <= 0) return out;

  // Active-fault bookkeeping per family, keyed by the scheduled repair
  // time. An entry is retired once the injection clock passes its repair,
  // mirroring what a replay of the final (time-sorted, repairs-first)
  // event list observes. Node families leave `b` invalid.
  struct Active {
    Time until;
    NodeId a, b;
  };
  std::array<std::vector<Active>, kNumFaultFamilies> active;
  std::vector<FaultEvent> events;

  const double mean_gap_ns = static_cast<double>(kSecond) / cfg.events_per_s;
  const Time last_injection = cfg.end - cfg.min_heal;

  // Injection times form a Poisson process over [start, last_injection];
  // each draws a fault family with blast-radius headroom, a victim, and an
  // exponential duration >= min_heal clipped to heal by `end`.
  Time t = cfg.start;
  for (;;) {
    t += static_cast<Time>(rng_.exponential(mean_gap_ns)) + 1;
    if (t > last_injection) break;
    for (auto& list : active)
      list.erase(std::remove_if(list.begin(), list.end(),
                                [t](const Active& f) { return f.until <= t; }),
                 list.end());

    bool ok[kNumFaultFamilies];
    double ok_weight = 0;
    std::size_t ok_count = 0, only = 0;
    for (std::size_t k = 0; k < kNumFaultFamilies; ++k) {
      const std::size_t headroom =
          static_cast<std::size_t>(std::max(knob[k].cap, 0));
      ok[k] = knob[k].weight > 0 && active[k].size() < headroom &&
              (kFaultFamilies[k].pair ? nodes.size() >= 2
                                      : active[k].size() < nodes.size());
      if (ok[k]) {
        ok_weight += knob[k].weight;
        ++ok_count;
        only = k;
      }
    }
    if (ok_count == 0) continue;  // at the blast radius: drop this one

    // Weighted family pick. A single eligible one is taken without a draw —
    // this keeps the RNG stream (and therefore every committed storm)
    // byte-identical to the pre-gray generator when only crash/sever are
    // enabled.
    std::size_t fam = only;
    if (ok_count > 1) {
      double u = rng_.uniform() * ok_weight;
      for (std::size_t k = 0; k < kNumFaultFamilies; ++k) {
        if (!ok[k]) continue;
        if (u < knob[k].weight) {
          fam = k;
          break;
        }
        u -= knob[k].weight;
      }
    }

    const Time extra = static_cast<Time>(
        rng_.exponential(static_cast<double>(cfg.mean_extra)));
    const Time repair = std::min(cfg.end, t + cfg.min_heal + extra);

    NodeId a = kInvalidNode, b = kInvalidNode;
    const FaultFamily& row = kFaultFamilies[fam];
    if (!row.pair) {
      // Victim: uniform over nodes this family is not currently hitting.
      std::vector<NodeId> free;
      free.reserve(nodes.size());
      for (NodeId n : nodes) {
        bool hit = false;
        for (const Active& f : active[fam]) hit |= f.a == n;
        if (!hit) free.push_back(n);
      }
      a = free[rng_.below(free.size())];
    } else {
      // Victim pair: a uniform directed pair this family is not currently
      // hitting. The pair space is tiny (n*(n-1) for cluster-sized n), so
      // rejection sampling against the active set terminates quickly; bail
      // to the next injection if the space is saturated.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const NodeId ca = nodes[rng_.below(nodes.size())];
        const NodeId cb = nodes[rng_.below(nodes.size())];
        if (ca == cb) continue;
        bool hit = false;
        for (const Active& f : active[fam]) hit |= f.a == ca && f.b == cb;
        if (hit) continue;
        a = ca;
        b = cb;
        break;
      }
      if (a == kInvalidNode) continue;
    }

    double x = knob[fam].x;
    if (row.fault == FaultEvent::Kind::kSkewSet)
      x = cfg.skew_rate_lo +
          rng_.uniform() * (cfg.skew_rate_hi - cfg.skew_rate_lo);
    events.push_back({t, row.fault, a, b, x, knob[fam].d});
    events.push_back({repair, row.repair, a, b, 0, 0});
    active[fam].push_back({repair, a, b});
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     if (x.at != y.at) return x.at < y.at;
                     return kind_rank(x.kind) < kind_rank(y.kind);
                   });
  // Raw append: the generator enforces its own pairing/blast-radius
  // structure, and the builder-level sever dedup must not second-guess a
  // sorted storm.
  for (const FaultEvent& ev : events) out.add(ev);
  return out;
}

}  // namespace canopus::simnet
