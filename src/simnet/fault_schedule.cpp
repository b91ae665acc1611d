#include "simnet/fault_schedule.h"

#include <memory>

namespace canopus::simnet {

const char* fault_kind_name(FaultEvent::Kind k) {
  const FaultFamily& f = kFaultFamilies[fault_family(k)];
  return f.fault == k ? f.fault_name : f.repair_name;
}

bool fault_kind_parse(std::string_view name, FaultEvent::Kind* out) {
  for (const FaultFamily& f : kFaultFamilies) {
    if (name == f.fault_name || name == f.repair_name) {
      *out = name == f.fault_name ? f.fault : f.repair;
      return true;
    }
  }
  return false;
}

void FaultSchedule::apply(Network& net, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kCrash: net.crash(ev.a); break;
    case FaultEvent::Kind::kRecover: net.recover(ev.a); break;
    case FaultEvent::Kind::kSever: net.sever(ev.a, ev.b); break;
    case FaultEvent::Kind::kHeal: net.heal(ev.a, ev.b); break;
    case FaultEvent::Kind::kCpuSlow: net.set_cpu_factor(ev.a, ev.x); break;
    case FaultEvent::Kind::kCpuNormal: net.set_cpu_factor(ev.a, 1.0); break;
    case FaultEvent::Kind::kFlapStart: net.flap(ev.a, ev.b, ev.d); break;
    case FaultEvent::Kind::kFlapStop: net.flap_stop(ev.a, ev.b); break;
    case FaultEvent::Kind::kDupStart: net.duplicate(ev.a, ev.b, ev.d); break;
    case FaultEvent::Kind::kDupStop: net.duplicate_stop(ev.a, ev.b); break;
    case FaultEvent::Kind::kReorderStart: net.reorder(ev.a, ev.b, ev.d); break;
    case FaultEvent::Kind::kReorderStop: net.reorder_stop(ev.a, ev.b); break;
    case FaultEvent::Kind::kSkewSet:
      net.set_clock_skew(ev.a, ev.x, ev.d);
      break;
    case FaultEvent::Kind::kSkewClear: net.set_clock_skew(ev.a, 1.0, 0); break;
  }
}

void FaultSchedule::arm(Network& net, ApplyFn hook) const {
  // One shared copy of the (potentially capture-heavy) hook keeps each
  // per-event closure small enough for the simulator's inline storage.
  auto shared_hook =
      hook ? std::make_shared<const ApplyFn>(std::move(hook)) : nullptr;
  for (const FaultEvent& ev : events_) {
    auto fire = [&net, ev, shared_hook] {
      if (shared_hook)
        (*shared_hook)(net, ev);
      else
        apply(net, ev);
    };
    static_assert(InlineFn::fits_inline<decltype(fire)>);
    net.sim().at(ev.at, std::move(fire));
  }
}

}  // namespace canopus::simnet
