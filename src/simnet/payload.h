// The typed message bus: one payload representation for every wire message
// in the repository.
//
// A Payload is a (tag, shared value) pair. The tag space is the closed enum
// below — one entry per wire-message struct that travels through the
// simulated network (canopus proposals, raft RPCs, zab/epaxos frames, kv
// client traffic, switch broadcast frames). Each protocol registers its
// structs with CANOPUS_REGISTER_PAYLOAD, which specializes PayloadTraits<T>
// with the struct's tag; Payload::as<T>() is then a single integer compare
// plus a static_cast — no RTTI and no type-erasure casts on the
// per-message hot path.
//
// Values live in a reference-counted heap block of the payload's own: an
// atomic holder count and a destroy hook in front of the value, one
// allocation in all. A broadcast of a large proposal (Canopus proposals can
// carry thousands of requests) shares that ONE block across all receivers:
// copying a Payload, re-addressing a Message, or replicating a raft
// LogEntry copies a pointer, never the value. A published value is
// immutable while it is shared — exactly the semantics a real wire gives
// you. Only its sole holder may change it, through Payload::rewrite or
// Payload::rewrite_body, and only a sender's last-sent memo does: RaftNode's
// (raft.cpp, send_wire), an EPaxos acceptor's last PreAcceptOk to each
// command leader (epaxos.cpp, send_pre_accept_ok) and the four view-bodied
// senders' (below).
//
// The count belongs to the payload, not to a std::shared_ptr, because of
// that rewrite. The last other holder may drop its copy on another thread
// (the threaded backend, or a PDES shard), after reading the value there.
// In a process with more than one thread every drop is a release
// decrement, and both rewrites read the count with an acquire load, so
// those reads happen before the rewrite's writes, and ThreadSanitizer sees
// the edge. shared_ptr::use_count() is only a relaxed load, and
// make_shared<const T> makes any write through it undefined. The count is
// a HolderCount, the one type Canopus write sets (canopus/messages.h)
// embed too: they cross threads inside proposals the same way.
//
// A message with a variable-length body (a client batch, a reply batch, a
// forwarded write batch) is a *view-bodied* type: a header whose
// std::span<const E> member, named at registration with
// CANOPUS_REGISTER_VIEW_PAYLOAD, views a copy of the body stored in the
// payload's own heap block. Such a type enters the bus only through
// Payload::with_body, so the message and its body cost one allocation, and
// its span cannot outlive or dangle from what it views. The block records
// its capacity, so its sole holder can refill it with Payload::rewrite_body
// whenever the next body fits: the client machines, the replicas' reply
// flush and the Zab and Raft KV forwards each keep their last payload sent
// as a memo and refill it once every receiver has dropped its copy.
//
// Every protocol message states its own wire size through a wire_bytes()
// member (a SizedPayload). The payload records that size once, when the
// value is published (and again when its sole holder rewrites it), and
// every layer that carries it (Message, the reliable-broadcast substrates,
// the raft log) reads it from there. The test probes of payload_testing.h
// state no size; their sender names one with Payload::sized.
#pragma once

#include <atomic>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#if __has_include(<sys/single_threaded.h>)
#include <sys/single_threaded.h>
#endif

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

/// The holder count of a heap block that is shared across threads and
/// immutable while shared: a Payload's block, and a Canopus write set
/// (canopus/messages.h). It starts at one holder, the block's builder.
/// The last holder to drop may be on another thread than the one that
/// built the block (the threaded backend, or a PDES shard), after reading
/// the value there.
class HolderCount {
 public:
  // While the process has one thread, no other thread can hold a copy,
  // so the count takes a plain read-modify-write, as libstdc++'s
  // shared_ptr does; the serial simulator never pays for a locked one.
  void add() noexcept {
    if (one_thread())
      n_.store(n_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
    else
      n_.fetch_add(1, std::memory_order_relaxed);
  }
  /// True when the dropped holder was the last. acq_rel: a release for
  /// the holder that rewrites after this drop (see sole), and an acquire
  /// for the one that destroys the value.
  bool drop() noexcept {
    if (one_thread()) {
      const std::uint32_t left = n_.load(std::memory_order_relaxed) - 1;
      n_.store(left, std::memory_order_relaxed);
      return left == 0;
    }
    return n_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  /// True when the caller is the only holder. Acquire: every other
  /// holder's reads of the value happened before its release decrement,
  /// so they happen before whatever the sole holder writes next.
  bool sole() const noexcept {
    return n_.load(std::memory_order_acquire) == 1;
  }

 private:
  static bool one_thread() noexcept {
#if __has_include(<sys/single_threaded.h>)
    return ::__libc_single_threaded != 0;
#else
    return false;
#endif
  }

  std::atomic<std::uint32_t> n_{1};
};
static_assert(sizeof(HolderCount) == 4);

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
      : tag_(PayloadTraits<V>::tag), value_(make<V>(std::forward<T>(value))) {
    bytes_ = narrow(value_of<V>()->wire_bytes());
  }

  /// Publishes a value that states no wire size of its own (the test
  /// probes of payload_testing.h), charged `bytes` on the wire. A protocol
  /// message is always charged its own wire_bytes(), so this refuses one.
  template <class T, class V = std::remove_cvref_t<T>>
    requires(RegisteredPayload<V> && !SizedPayload<V>)
  static Payload sized(T&& value, std::size_t bytes) {
    Payload p;
    p.tag_ = PayloadTraits<V>::tag;
    p.bytes_ = narrow(bytes);
    p.value_ = make<V>(std::forward<T>(value));
    return p;
  }

  /// Publishes a view-bodied H: copies `body` and a value-initialized H
  /// into ONE heap block and points H's body span at the copy. The block
  /// records its capacity, the header plus this body, for rewrite_body.
  /// The caller's buffer is free to be cleared or refilled as soon as this
  /// returns.
  template <ViewBodiedPayload H>
  static Payload with_body(PayloadBody<H> body) {
    Payload p;
    p.value_ =
        allocate(body_at<H>() + body.size_bytes(), &free_block)->value();
    p.fill<H>(body);
    return p;
  }

  Payload(const Payload& other) noexcept
      : tag_(other.tag_), bytes_(other.bytes_), value_(other.value_) {
    if (value_ != nullptr) block()->holders.add();
  }
  Payload(Payload&& other) noexcept
      : tag_(std::exchange(other.tag_, PayloadTag::kInvalid)),
        bytes_(std::exchange(other.bytes_, 0)),
        value_(std::exchange(other.value_, nullptr)) {}
  /// Copy and move assignment in one: `other` is this payload's new value,
  /// and the old one is dropped with it.
  Payload& operator=(Payload other) noexcept {
    std::swap(tag_, other.tag_);
    std::swap(bytes_, other.bytes_);
    std::swap(value_, other.value_);
    return *this;
  }
  ~Payload() {
    if (value_ != nullptr && block()->holders.drop()) block()->destroy(block());
  }

  /// Returns the value if it carries tag T, else nullptr. One integer
  /// compare — the whole point of the bus.
  template <class T>
  const T* as() const {
    return tag_ == PayloadTraits<T>::tag ? value_of<T>() : nullptr;
  }

  /// The sole holder's rewrite: when this payload carries a T and no other
  /// copy of it exists (no in-flight Message, log entry, trace or
  /// duplicate), calls `edit` on the value in place, re-records its
  /// wire_bytes() and returns true. Otherwise changes nothing and returns
  /// false. The block, and so raw(), stays the same. View-bodied types and
  /// the probes are refused at compile time: an edit could grow a body
  /// past its block (rewrite_body checks the capacity instead), and a
  /// probe's size is its sender's.
  template <class T, std::invocable<T&> F>
    requires(SizedPayload<T> && !ViewBodiedPayload<T>)
  bool rewrite(F&& edit) {
    if (tag_ != PayloadTraits<T>::tag || !block()->holders.sole())
      return false;
    T* const value = value_of<T>();
    std::forward<F>(edit)(*value);
    bytes_ = narrow(value->wire_bytes());
    return true;
  }

  /// The sole holder's refill of a view-bodied H: when this payload
  /// carries an H, no other copy of it exists, and the header and `body`
  /// fit the block's recorded capacity, writes a fresh H and a copy of
  /// `body` over the value, re-records its wire_bytes() and returns true.
  /// Otherwise changes nothing and returns false. The block, and so raw(),
  /// stays the same. `body` must not view this payload's own block.
  template <ViewBodiedPayload H>
  bool rewrite_body(PayloadBody<H> body) {
    if (tag_ != PayloadTraits<H>::tag || !block()->holders.sole() ||
        body_at<H>() + body.size_bytes() > block()->capacity)
      return false;
    fill<H>(body);
    return true;
  }

  PayloadTag tag() const { return tag_; }
  bool empty() const { return value_ == nullptr; }
  /// What the network charges for this payload: the value's wire_bytes()
  /// at publication (0 for an empty payload).
  std::size_t wire_bytes() const { return bytes_; }

  /// Identity of the shared allocation — lets tests assert that broadcast
  /// fan-out and Message::readdressed share one value instead of copying.
  const void* raw() const { return value_; }

 private:
  /// The head of a payload's heap block; the value follows it. Aligned
  /// like std::max_align_t, so the value right behind it is too.
  struct alignas(std::max_align_t) Block {
    using Destroy = void (*)(Block*) noexcept;
    Block(Destroy d, std::uint32_t value_bytes)
        : capacity(value_bytes), destroy(d) {}
    void* value() { return this + 1; }

    HolderCount holders;
    /// Bytes behind the head, in the padding after holders: what
    /// rewrite_body may refill.
    const std::uint32_t capacity;
    const Destroy destroy;  ///< ends the value and frees the block
  };
  static_assert(alignof(Block) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static_assert(sizeof(Block) == 16);

  /// One allocation: the block head and `value_bytes` behind it.
  static Block* allocate(std::size_t value_bytes, Block::Destroy destroy) {
    return ::new (::operator new(sizeof(Block) + value_bytes))
        Block(destroy, narrow(value_bytes));
  }

  /// Where a view-bodied H's body starts in its value bytes.
  template <ViewBodiedPayload H>
  static constexpr std::size_t body_at() {
    using E = typename PayloadBody<H>::value_type;
    static_assert(alignof(H) <= alignof(Block) && alignof(E) <= alignof(Block));
    return (sizeof(H) + alignof(E) - 1) / alignof(E) * alignof(E);
  }

  /// with_body's and rewrite_body's fill of a block with room for `body`:
  /// a value-initialized H whose span views a copy of `body` right behind
  /// it. Records the tag and H's wire_bytes().
  template <ViewBodiedPayload H>
  void fill(PayloadBody<H> body) {
    using E = typename PayloadBody<H>::value_type;
    static_assert(std::is_trivially_copyable_v<E>);
    static_assert(std::is_trivially_destructible_v<H>,
                  "the block's destroy hook never runs ~H");
    auto* const bytes = static_cast<std::byte*>(value_);
    E* const copy = reinterpret_cast<E*>(bytes + body_at<H>());
    std::uninitialized_copy(body.begin(), body.end(), copy);
    H* const header = ::new (static_cast<void*>(bytes)) H{};
    header->*PayloadTraits<H>::body = PayloadBody<H>(copy, body.size());
    tag_ = PayloadTraits<H>::tag;
    bytes_ = narrow(header->wire_bytes());
  }

  /// Publishes a V built from `args` into a new block; returns the value.
  template <class V, class... A>
  static void* make(A&&... args) {
    static_assert(alignof(V) <= alignof(Block));
    Block* const block = allocate(sizeof(V), &destroy_value<V>);
    try {
      return ::new (block->value()) V(std::forward<A>(args)...);
    } catch (...) {
      free_block(block);
      throw;
    }
  }

  template <class V>
  static void destroy_value(Block* block) noexcept {
    std::launder(static_cast<V*>(block->value()))->~V();
    free_block(block);
  }

  static void free_block(Block* block) noexcept {
    block->~Block();
    ::operator delete(block);
  }

  /// Precondition: this payload carries a T.
  template <class T>
  T* value_of() const {
    return std::launder(static_cast<T*>(value_));
  }

  /// Precondition: !empty().
  Block* block() const { return static_cast<Block*>(value_) - 1; }

  static std::uint32_t narrow(std::size_t bytes) {
    assert(bytes <= UINT32_MAX);
    return static_cast<std::uint32_t>(bytes);
  }

  PayloadTag tag_ = PayloadTag::kInvalid;
  std::uint32_t bytes_ = 0;  ///< in the padding after tag_
  /// The value, right behind its block's head: typed access reads it
  /// without an offset, and only holder counting steps back to the head.
  void* value_ = nullptr;
};
static_assert(sizeof(Payload) == 16);

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
