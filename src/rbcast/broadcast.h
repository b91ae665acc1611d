// Broadcast: the reliable-broadcast abstraction a super-leaf runs on.
//
// §4.3 names two interchangeable substrates:
//  * "For ToR switches that support hardware-assisted atomic broadcast,
//     nodes in a super-leaf can use this functionality" -> SwitchBroadcast
//     (rbcast/switch_broadcast.h);
//  * "If hardware support is not available, we use a variant of Raft"
//     -> ReliableBroadcast (rbcast/rbcast.h).
//
// Canopus is written against this interface, so the substrate is a
// deployment choice (core::Config::broadcast). Payloads travel on the typed
// message bus (simnet::Payload), which also carries each payload's wire
// size; a broadcast shares one payload allocation across every receiver.
#pragma once

#include <functional>

#include "common/types.h"
#include "simnet/message.h"

namespace canopus::rbcast {

class Broadcast {
 public:
  struct Callbacks {
    /// Deliver a payload broadcast by `origin`. Same-origin payloads are
    /// delivered in broadcast order; all live members deliver the same set
    /// (validity/integrity/agreement).
    std::function<void(NodeId origin, const simnet::Payload& payload)> deliver;
    /// A member was detected failed, at a point consistently ordered with
    /// its delivered broadcasts on every survivor.
    std::function<void(NodeId failed)> on_peer_failed;
  };

  virtual ~Broadcast() = default;

  virtual void start() = 0;
  virtual void stop() = 0;
  virtual void broadcast(simnet::Payload payload) = 0;

  /// Feeds a network message; returns true if it belonged to this layer.
  virtual bool handle(const simnet::Message& m) = 0;

  virtual void remove_member(NodeId peer) = 0;
  virtual void add_member(NodeId peer) = 0;
  virtual bool is_member(NodeId peer) const = 0;
};

}  // namespace canopus::rbcast
