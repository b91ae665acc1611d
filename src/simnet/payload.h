// The typed message bus: one payload representation for every wire message
// in the repository.
//
// A Payload is a (tag, shared immutable value) pair. The tag space is the
// closed enum below — one entry per wire-message struct that travels
// through the simulated network (canopus proposals, raft RPCs, zab/epaxos
// frames, kv client traffic, switch broadcast frames). Each protocol
// registers its structs with CANOPUS_REGISTER_PAYLOAD, which specializes
// PayloadTraits<T> with the struct's tag; Payload::as<T>() is then a single
// integer compare plus a static_cast — no RTTI and no type-erasure casts
// on the per-message hot path.
//
// Values are held behind shared_ptr<const void> so that a broadcast of a
// large proposal (Canopus proposals can carry thousands of requests) shares
// ONE allocation across all receivers: copying a Payload, re-addressing a
// Message, or replicating a raft LogEntry copies a pointer, never the
// value. Payload values are immutable once published — exactly the
// semantics a real wire gives you.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

namespace canopus::simnet {

/// Closed tag space of the message bus. Every wire-message struct in the
/// repository has exactly one entry; adding a protocol message means adding
/// a tag here and a CANOPUS_REGISTER_PAYLOAD at the struct's definition.
/// Values are assigned implicitly (dense, starting at 0 for kInvalid) so
/// uniqueness holds by construction; a test additionally asserts that no
/// two *registered types* share a tag.
enum class PayloadTag : std::uint16_t {
  kInvalid = 0,

  // raft/ — all four RPCs plus control frames share one struct.
  kRaftWire,
  // raft/ standalone KV deployment (raft_kv.h): replicated batches, the
  // member -> leader write forwarding frame, and the compaction snapshot
  // carried inside InstallSnapshot.
  kRaftKvBatch,
  kRaftKvForward,
  kRaftKvSnapshot,

  // canopus/ — protocol wire messages (§4.2, §4.5, §3).
  kCanopusProposal,
  kCanopusProposalRequest,
  kCanopusJoinRequest,
  kCanopusJoinAck,

  // kv/ — client <-> server traffic, shared by every consensus system.
  kKvClientBatch,
  kKvReplyBatch,

  // zab/ — centralized atomic broadcast baseline.
  kZabForward,
  kZabPropose,
  kZabAck,
  kZabCommit,
  kZabInform,
  kZabSyncReq,
  kZabSnapshot,

  // epaxos/ — leaderless baseline.
  kEpaxosPreAccept,
  kEpaxosPreAcceptOk,
  kEpaxosCommit,
  kEpaxosFetch,
  kEpaxosCommitFull,
  kEpaxosSeqProbe,
  kEpaxosSeqInfo,
  kEpaxosSnapRequest,
  kEpaxosSnapshot,

  // rbcast/ — hardware-assisted atomic broadcast frames.
  kSwitchFrame,

  // Reserved for tests and benches only (simnet/payload_testing.h);
  // protocol code must never use these.
  kTestText,
  kTestInt,
  kTestChar,
};

/// Primary template is intentionally undefined: sending an unregistered
/// type through the bus is a compile error, not a runtime surprise.
template <class T>
struct PayloadTraits;

template <class T>
concept RegisteredPayload = requires {
  { PayloadTraits<T>::tag } -> std::convertible_to<PayloadTag>;
};

/// A detached, shareable, typed-but-erased message body. The common
/// currency of Network, the reliable-broadcast substrates, and the raft
/// replicated log.
class Payload {
 public:
  Payload() = default;

  /// Wraps a registered wire-message value. Implicit on purpose: protocol
  /// code writes `broadcast(proposal, bytes)` / `send(dst, bytes, msg)` and
  /// the value enters the bus at that boundary.
  template <class T>
    requires(!std::is_same_v<std::remove_cvref_t<T>, Payload> &&
             RegisteredPayload<std::remove_cvref_t<T>>)
  Payload(T&& value)  // NOLINT(google-explicit-constructor)
      : tag_(PayloadTraits<std::remove_cvref_t<T>>::tag),
        ptr_(std::make_shared<const std::remove_cvref_t<T>>(
            std::forward<T>(value))) {}

  /// Returns the value if it carries tag T, else nullptr. One integer
  /// compare — the whole point of the bus.
  template <class T>
  const T* as() const {
    return tag_ == PayloadTraits<T>::tag ? static_cast<const T*>(ptr_.get())
                                         : nullptr;
  }

  PayloadTag tag() const { return tag_; }
  bool empty() const { return ptr_ == nullptr; }

  /// Identity of the shared allocation — lets tests assert that broadcast
  /// fan-out and Message::readdressed share one value instead of copying.
  const void* raw() const { return ptr_.get(); }

 private:
  PayloadTag tag_ = PayloadTag::kInvalid;
  std::shared_ptr<const void> ptr_;
};

}  // namespace canopus::simnet

/// Registers TYPE under PayloadTag::TAG. Use at global (non-namespace)
/// scope, immediately after the struct's definition.
#define CANOPUS_REGISTER_PAYLOAD(TYPE, TAG)                 \
  template <>                                               \
  struct canopus::simnet::PayloadTraits<TYPE> {             \
    static constexpr canopus::simnet::PayloadTag tag =      \
        canopus::simnet::PayloadTag::TAG;                   \
  }
