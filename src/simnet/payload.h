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
//
// A message with a variable-length body (a client batch, a reply batch, a
// forwarded write batch) is a *view-bodied* type: a header whose
// std::span<const E> member, named at registration with
// CANOPUS_REGISTER_VIEW_PAYLOAD, views a copy of the body stored in the
// payload's own heap block. Such a type enters the bus only through
// Payload::with_body, so the message and its body cost one allocation, and
// its span cannot outlive or dangle from what it views.
//
// Every protocol message states its own wire size through a wire_bytes()
// member (a SizedPayload). The payload records that size once, when the
// value is published, and every layer that carries it (Message, the
// reliable-broadcast substrates, the raft log) reads it from there. The
// test probes of payload_testing.h state no size; their sender names one
// with Payload::sized.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
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

/// A registered type that states its own wire size: every protocol message.
template <class T>
concept SizedPayload = RegisteredPayload<T> && requires(const T& v) {
  { v.wire_bytes() } -> std::convertible_to<std::size_t>;
};

/// A registered header whose body lives in its payload's block.
template <class T>
concept ViewBodiedPayload =
    SizedPayload<T> && requires { PayloadTraits<T>::body; };

/// The std::span<const E> type of a view-bodied header's body member.
template <ViewBodiedPayload H>
using PayloadBody = std::remove_cvref_t<decltype(std::declval<const H&>().*
                                                 PayloadTraits<H>::body)>;

/// A detached, shareable, typed-but-erased message body. The common
/// currency of Network, the reliable-broadcast substrates, and the raft
/// replicated log.
class Payload {
 public:
  Payload() = default;

  /// Wraps a registered wire-message value and records its wire_bytes().
  /// Implicit on purpose: protocol code writes `broadcast(proposal)` /
  /// `send(dst, msg)` and the value enters the bus at that boundary. A
  /// view-bodied type is rejected here: its span would still point at the
  /// sender's buffer.
  template <class T, class V = std::remove_cvref_t<T>>
    requires(SizedPayload<V> && !ViewBodiedPayload<V>)
  Payload(T&& value)  // NOLINT(google-explicit-constructor)
      : Payload(std::make_shared<const V>(std::forward<T>(value))) {}

  /// Publishes a value that states no wire size of its own (the test
  /// probes of payload_testing.h), charged `bytes` on the wire. A protocol
  /// message is always charged its own wire_bytes(), so this refuses one.
  template <class T, class V = std::remove_cvref_t<T>>
    requires(RegisteredPayload<V> && !SizedPayload<V>)
  static Payload sized(T&& value, std::size_t bytes) {
    Payload p;
    p.tag_ = PayloadTraits<V>::tag;
    p.bytes_ = narrow(bytes);
    p.ptr_ = std::make_shared<const V>(std::forward<T>(value));
    return p;
  }

  /// Publishes a view-bodied H: copies `body` and a value-initialized H
  /// into ONE heap block, points H's body span at the copy and shares the
  /// block through an aliasing shared_ptr. The caller's buffer is free to
  /// be cleared or refilled as soon as this returns.
  template <ViewBodiedPayload H>
  static Payload with_body(PayloadBody<H> body) {
    using E = typename PayloadBody<H>::value_type;
    static_assert(std::is_trivially_copyable_v<E>);
    static_assert(std::is_trivially_destructible_v<H>,
                  "the block's deleter never runs ~H");
    // Alignment-sized Units: the block rounds up to the alignment the
    // header and body need, not to alignof(std::max_align_t).
    constexpr std::size_t kAlign =
        alignof(H) > alignof(E) ? alignof(H) : alignof(E);
    struct alignas(kAlign) Unit {
      std::byte bytes[kAlign];
    };
    constexpr std::size_t kBodyAt =
        (sizeof(H) + alignof(E) - 1) / alignof(E) * alignof(E);
    const std::size_t units =
        (kBodyAt + body.size_bytes() + sizeof(Unit) - 1) / sizeof(Unit);
    auto block = std::make_shared_for_overwrite<Unit[]>(units);
    auto* const bytes = reinterpret_cast<std::byte*>(block.get());
    E* const copy = reinterpret_cast<E*>(bytes + kBodyAt);
    std::uninitialized_copy(body.begin(), body.end(), copy);
    H* const header = ::new (static_cast<void*>(bytes)) H{};
    header->*PayloadTraits<H>::body = PayloadBody<H>(copy, body.size());
    return Payload(std::shared_ptr<const H>(std::move(block), header));
  }

  /// Returns the value if it carries tag T, else nullptr. One integer
  /// compare — the whole point of the bus.
  template <class T>
  const T* as() const {
    return tag_ == PayloadTraits<T>::tag ? static_cast<const T*>(ptr_.get())
                                         : nullptr;
  }

  PayloadTag tag() const { return tag_; }
  bool empty() const { return ptr_ == nullptr; }
  /// What the network charges for this payload: the value's wire_bytes()
  /// at publication (0 for an empty payload).
  std::size_t wire_bytes() const { return bytes_; }

  /// Identity of the shared allocation — lets tests assert that broadcast
  /// fan-out and Message::readdressed share one value instead of copying.
  const void* raw() const { return ptr_.get(); }

 private:
  template <SizedPayload T>
  explicit Payload(std::shared_ptr<const T> value)
      : tag_(PayloadTraits<T>::tag),
        bytes_(narrow(value->wire_bytes())),
        ptr_(std::move(value)) {}

  static std::uint32_t narrow(std::size_t bytes) {
    assert(bytes <= UINT32_MAX);
    return static_cast<std::uint32_t>(bytes);
  }

  PayloadTag tag_ = PayloadTag::kInvalid;
  std::uint32_t bytes_ = 0;  ///< in the padding after tag_
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

/// Registers view-bodied TYPE under PayloadTag::TAG: its std::span<const E>
/// member BODY views the body Payload::with_body stores in the payload's
/// block, and the by-value Payload constructor rejects TYPE.
#define CANOPUS_REGISTER_VIEW_PAYLOAD(TYPE, TAG, BODY)       \
  template <>                                               \
  struct canopus::simnet::PayloadTraits<TYPE> {             \
    static constexpr canopus::simnet::PayloadTag tag =      \
        canopus::simnet::PayloadTag::TAG;                   \
    static constexpr auto body = &TYPE::BODY;               \
  }
