// Client-visible request/reply types shared by every consensus system in
// this repository (Canopus, EPaxos, Zab/ZKCanopus). Keeping the client
// protocol identical across systems is what makes the paper's comparisons
// apples-to-apples (§8's ZKCanopus methodology).
//
// Both batch types are view-bodied (simnet/payload.h): each sender keeps
// its last batch per destination and refills that block in place, so a
// batch costs no allocation once its receiver has dropped the previous
// one and the new body fits (DESIGN.md §5.2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "simnet/payload.h"

namespace canopus::kv {

/// One key-value operation. The paper's workload uses 16-byte key-value
/// pairs drawn from 1M keys.
struct Request {
  RequestId id;
  bool is_write = false;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  ///< payload for writes
  NodeId origin = kInvalidNode;  ///< server that received it from the client
  Time arrival = 0;  ///< client-side submit time (measurement only)
};

/// Wire footprint of one request: 16-byte KV pair + ids + flags.
inline constexpr std::size_t kRequestWire = 40;

/// Open-loop clients aggregate same-tick arrivals into one batch message.
/// View-bodied: built only by simnet::Payload::with_body, whose block also
/// holds the requests, and refilled in that block by its sender's
/// Payload::rewrite_body once the receiver has dropped it.
struct ClientBatch {
  std::span<const Request> reqs;
  std::size_t wire_bytes() const { return 24 + kRequestWire * reqs.size(); }
};

/// A finished request going back to its client.
struct Completion {
  RequestId id;
  bool is_write = false;
  std::uint64_t value = 0;  ///< read result (0 for writes)
  Time arrival = 0;
  std::uint64_t key = 0;  ///< the request's key (audit plane: per-key
                          ///< monotonic-read checking); not on the wire
};

/// The completions one server sends one client after a handler.
/// View-bodied, like ClientBatch.
struct ReplyBatch {
  std::span<const Completion> done;
  std::size_t wire_bytes() const { return 24 + 24 * done.size(); }
};

}  // namespace canopus::kv

CANOPUS_REGISTER_VIEW_PAYLOAD(canopus::kv::ClientBatch, kKvClientBatch, reqs);
CANOPUS_REGISTER_VIEW_PAYLOAD(canopus::kv::ReplyBatch, kKvReplyBatch, done);
