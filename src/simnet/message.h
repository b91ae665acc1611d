// A network message: routing header + typed payload from the message bus.
//
// The payload is a simnet::Payload (see payload.h): a shared value,
// immutable while shared, so a broadcast of a large proposal (Canopus
// proposals can carry thousands of requests) shares one allocation across
// all receivers.
// `wire_bytes` is what the network charges for: the size the payload's
// type states from its own serialization rules (see DESIGN.md §5.3),
// recorded when the payload was published, so the simulator never needs
// to actually serialize anything.
#pragma once

#include <cstddef>
#include <utility>

#include "common/types.h"
#include "simnet/payload.h"

namespace canopus::simnet {

class Message {
 public:
  Message() = default;

  Message(NodeId src, NodeId dst, Payload payload)
      : src_(src), dst_(dst), payload_(std::move(payload)) {}

  NodeId src() const { return src_; }
  NodeId dst() const { return dst_; }
  std::size_t wire_bytes() const { return payload_.wire_bytes(); }

  /// Returns the payload if it carries tag T, else nullptr.
  template <class T>
  const T* as() const {
    return payload_.as<T>();
  }

  const Payload& payload() const { return payload_; }

  /// Re-address the same payload to a different destination (used when a
  /// representative re-broadcasts a fetched proposal inside its super-leaf).
  /// Shares the payload allocation with the original.
  Message readdressed(NodeId src, NodeId dst) const {
    Message m = *this;
    m.src_ = src;
    m.dst_ = dst;
    return m;
  }

 private:
  NodeId src_ = kInvalidNode;
  NodeId dst_ = kInvalidNode;
  Payload payload_;
};

}  // namespace canopus::simnet
