// The typed message bus (simnet/payload.h): tag dispatch, the closed tag
// registry, the wire size each payload records at publication, the
// shared-allocation broadcast semantics that Canopus proposals rely on, and
// the sole holder's in-place rewrite and body refill.
//
// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be the binary's only definition of the global allocation functions.
#include "simnet/payload.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "canopus/messages.h"
#include "epaxos/epaxos.h"
#include "kv/types.h"
#include "raft/messages.h"
#include "raft/raft_kv.h"
#include "rbcast/switch_broadcast.h"
#include "simnet/message.h"
#include "simnet/payload_testing.h"
#include "zab/zab.h"

namespace canopus::simnet {
namespace {

template <class... T>
struct TypeList {};

/// Every protocol message registered on the bus, across all layers.
using ProtocolPayloads =
    TypeList<raft::WireMsg, raft::KvBatch, raft::KvForward, raft::KvSnapshot,
             proto::Proposal, proto::ProposalRequest, proto::JoinRequest,
             proto::JoinAck, kv::ClientBatch, kv::ReplyBatch, zab::Forward,
             zab::Propose, zab::Ack, zab::CommitMsg, zab::Inform,
             zab::SyncReq, zab::Snapshot, epaxos::PreAccept,
             epaxos::PreAcceptOk, epaxos::Commit, epaxos::Fetch,
             epaxos::CommitFull, epaxos::SeqProbe, epaxos::SeqInfo,
             epaxos::SnapRequest, epaxos::SnapshotMsg, rbcast::SwitchFrame>;
/// The test probes of payload_testing.h.
using ProbePayloads = TypeList<std::string, int, char>;

template <class... T>
std::vector<PayloadTag> tags_of(TypeList<T...>) {
  return {PayloadTraits<T>::tag...};
}

/// Whether Payload::sized accepts a T, i.e. its sender names its size.
template <class T>
concept SizedBySender =
    requires(T v) { Payload::sized(std::move(v), std::size_t{1}); };

template <class... T>
constexpr bool all_state_their_size(TypeList<T...>) {
  return ((SizedPayload<T> && !SizedBySender<T>) && ...);
}

template <class... T>
constexpr bool all_sized_by_sender(TypeList<T...>) {
  return ((!SizedPayload<T> && SizedBySender<T> &&
           !std::is_constructible_v<Payload, T>) &&
          ...);
}

/// Whether Payload::rewrite accepts a T.
template <class T>
concept Rewritable = requires(Payload p) { p.rewrite<T>([](T&) {}); };

template <class... T>
constexpr bool none_rewritable(TypeList<T...>) {
  return (!Rewritable<T> && ...);
}

// A payload is a tag, the recorded size and one pointer; a Message adds
// its two node ids.
static_assert(sizeof(Payload) == 16);
static_assert(sizeof(Message) == 24);

TEST(PayloadTest, WrongTypeAccessReturnsNull) {
  Payload p = Payload::sized(std::string("hello"), 5);
  EXPECT_NE(p.as<std::string>(), nullptr);
  EXPECT_EQ(*p.as<std::string>(), "hello");
  EXPECT_EQ(p.as<int>(), nullptr);
  EXPECT_EQ(p.as<proto::Proposal>(), nullptr);
  EXPECT_EQ(p.as<raft::WireMsg>(), nullptr);
}

TEST(PayloadTest, DefaultPayloadIsEmptyAndMatchesNothing) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.tag(), PayloadTag::kInvalid);
  EXPECT_EQ(p.as<std::string>(), nullptr);
  EXPECT_EQ(p.as<raft::WireMsg>(), nullptr);
}

TEST(PayloadTest, ProtocolTypesCarryTheirOwnTag) {
  proto::Proposal prop;
  prop.cycle = 7;
  Payload p(prop);
  ASSERT_NE(p.as<proto::Proposal>(), nullptr);
  EXPECT_EQ(p.as<proto::Proposal>()->cycle, 7u);
  // A different protocol's message under the same bus stays distinct.
  EXPECT_EQ(p.as<zab::Propose>(), nullptr);
  EXPECT_EQ(p.as<epaxos::PreAccept>(), nullptr);
  EXPECT_EQ(p.tag(), PayloadTag::kCanopusProposal);
}

TEST(PayloadTest, TagUniquenessAcrossAllRegisteredPayloads) {
  // Every type registered on the bus, across all protocol layers. Adding a
  // registration without a fresh enum tag must fail this test.
  std::vector<PayloadTag> tags = tags_of(ProtocolPayloads{});
  const std::vector<PayloadTag> probes = tags_of(ProbePayloads{});
  tags.insert(tags.end(), probes.begin(), probes.end());
  // A protocol message states its own wire size, and only the by-value
  // constructor or with_body publishes it; a probe states none, and only
  // Payload::sized publishes it.
  static_assert(all_state_their_size(ProtocolPayloads{}));
  static_assert(all_sized_by_sender(ProbePayloads{}));
  std::set<PayloadTag> unique(tags.begin(), tags.end());
  // Tags are dense and kTestChar is the last, so this counts every tag
  // after kInvalid: a new tag whose type is missing here fails.
  EXPECT_EQ(tags.size(), static_cast<std::size_t>(PayloadTag::kTestChar));
  EXPECT_EQ(unique.size(), tags.size()) << "two payload types share a tag";
  EXPECT_FALSE(unique.contains(PayloadTag::kInvalid))
      << "a payload type registered under kInvalid";
}

TEST(PayloadTest, CopyingAPayloadSharesOneAllocation) {
  proto::Proposal prop;
  prop.writes = proto::WriteSet::leaf(std::vector<kv::Request>(1000));
  Payload a(std::move(prop));
  Payload b = a;          // fan-out copy
  Payload c = b;          // second hop
  EXPECT_EQ(a.raw(), b.raw());
  EXPECT_EQ(b.raw(), c.raw());
  // And the inner shared write-set is likewise not duplicated.
  EXPECT_EQ(a.as<proto::Proposal>()->writes.get(),
            c.as<proto::Proposal>()->writes.get());
}

TEST(PayloadTest, ReaddressedBroadcastSharesOnePayloadAllocation) {
  // The representative re-broadcast path: a fetched proposal is readdressed
  // to each super-leaf peer; all N messages must point at the same value.
  proto::Proposal prop;
  prop.cycle = 3;
  prop.writes = proto::WriteSet::leaf(std::vector<kv::Request>(512));
  Message fetched(10, 20, prop);
  std::vector<Message> rebroadcast;
  for (NodeId peer = 21; peer <= 23; ++peer)
    rebroadcast.push_back(fetched.readdressed(20, peer));
  for (const Message& m : rebroadcast) {
    EXPECT_EQ(m.payload().raw(), fetched.payload().raw());
    ASSERT_NE(m.as<proto::Proposal>(), nullptr);
    EXPECT_EQ(m.as<proto::Proposal>(), fetched.as<proto::Proposal>());
  }
}

TEST(PayloadTest, RaftWireMessageRoundTrip) {
  raft::WireMsg w;
  w.group = 5;
  w.type = raft::MsgType::kRequestVote;
  w.term = 9;
  Message m(1, 2, w);
  ASSERT_NE(m.as<raft::WireMsg>(), nullptr);
  EXPECT_EQ(m.as<raft::WireMsg>()->group, 5u);
  EXPECT_EQ(m.as<raft::WireMsg>()->term, 9u);
  EXPECT_EQ(m.as<kv::ClientBatch>(), nullptr);
}

TEST(PayloadTest, WireBytesIsTheValuesOwnSize) {
  EXPECT_EQ(Payload().wire_bytes(), 0u);
  EXPECT_EQ(Payload(zab::Ack{7}).wire_bytes(), 24u);
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}}) {
    const Payload p(zab::Propose{
        1, std::make_shared<const std::vector<kv::Request>>(n)});
    EXPECT_EQ(p.wire_bytes(), 32 + 40 * n) << n << " requests";
  }

  // A raft message is charged its header, 16 bytes per entry on top of
  // the entry's own size, and the snapshot it carries.
  raft::KvSnapshot snap;
  snap.snap.image = std::make_shared<const kv::StoreImage>(
      kv::StoreImage{{1, 10}, {2, 20}});
  raft::WireMsg w;
  w.type = raft::MsgType::kInstallSnapshot;
  w.entries.push_back({1, Payload(zab::Ack{1})});
  w.entries.push_back({1, Payload::sized(std::string("probe"), 100)});
  w.snapshot = snap;
  EXPECT_EQ(w.snapshot.wire_bytes(), 48u + 16 * 2);
  const std::size_t raft_bytes = 64 + (16 + 24) + (16 + 100) + (48 + 16 * 2);
  EXPECT_EQ(Payload(w).wire_bytes(), raft_bytes);
  EXPECT_EQ(Message(1, 2, w).wire_bytes(), raft_bytes);

  // A switch frame adds a 32-byte sequencing header to its payload;
  // heartbeats and failure notices are 48 bytes.
  rbcast::SwitchFrame frame;
  frame.payload = w;
  EXPECT_EQ(Payload(frame).wire_bytes(), raft_bytes + 32);
  frame.payload = Payload();
  frame.kind = rbcast::SwitchFrame::Kind::kHeartbeat;
  EXPECT_EQ(Payload(frame).wire_bytes(), 48u);
  frame.kind = rbcast::SwitchFrame::Kind::kFail;
  frame.failed = 3;
  EXPECT_EQ(Payload(frame).wire_bytes(), 48u);
}

TEST(PayloadRewrite, RefusesWhileAnotherCopyHoldsIt) {
  Payload p(zab::Ack{1});
  const auto bump = [](zab::Ack& ack) { ++ack.zxid; };
  {
    const Payload copy = p;
    EXPECT_FALSE(p.rewrite<zab::Ack>(bump));
  }
  {
    const Message in_flight(1, 2, p);
    EXPECT_FALSE(p.rewrite<zab::Ack>(bump));
  }
  {
    const raft::LogEntry entry{1, p};
    EXPECT_FALSE(p.rewrite<zab::Ack>(bump));
  }
  EXPECT_EQ(p.as<zab::Ack>()->zxid, 1u);
  // Every copy is gone: the payload is its value's sole holder again.
  EXPECT_TRUE(p.rewrite<zab::Ack>(bump));
  EXPECT_EQ(p.as<zab::Ack>()->zxid, 2u);
}

TEST(PayloadRewrite, RefusesAWrongTagAndTheEmptyPayload) {
  const auto untouched = [](auto&) { ADD_FAILURE() << "edit ran"; };
  Payload ack(zab::Ack{1});
  EXPECT_FALSE(ack.rewrite<zab::CommitMsg>(untouched));
  EXPECT_EQ(ack.tag(), PayloadTag::kZabAck);
  EXPECT_EQ(ack.as<zab::Ack>()->zxid, 1u);
  Payload empty;
  EXPECT_FALSE(empty.rewrite<zab::Ack>(untouched));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.wire_bytes(), 0u);

  // A view-bodied body refills through rewrite_body, which checks its
  // block's capacity, and a probe's size is its sender's: neither compiles.
  static_assert(Rewritable<raft::WireMsg> && Rewritable<zab::Ack>);
  static_assert(none_rewritable(
      TypeList<kv::ClientBatch, kv::ReplyBatch, zab::Forward,
               raft::KvForward>{}));
  static_assert(none_rewritable(ProbePayloads{}));
}

TEST(PayloadRewrite, SoleHolderRewritesInPlaceWithoutAllocating) {
  raft::WireMsg w;
  w.type = raft::MsgType::kAppendEntries;
  w.entries.push_back({1, Payload(zab::Ack{1})});
  w.entries.push_back({1, Payload::sized(std::string("probe"), 100)});
  Payload p(std::move(w));
  const void* const block = p.raw();
  EXPECT_EQ(p.wire_bytes(), 64u + (16 + 24) + (16 + 100));

  const std::uint64_t before = canopus::bench::heap_allocations();
  EXPECT_TRUE(p.rewrite<raft::WireMsg>([](raft::WireMsg& m) {
    m.type = raft::MsgType::kAppendReply;
    m.entries.clear();
    m.success = true;
    m.match_index = 2;
  }));
  EXPECT_EQ(canopus::bench::heap_allocations() - before, 0u);

  EXPECT_EQ(p.raw(), block);
  EXPECT_EQ(p.tag(), PayloadTag::kRaftWire);
  EXPECT_EQ(p.wire_bytes(), 64u);
  EXPECT_EQ(Message(1, 2, p).wire_bytes(), 64u);
  const raft::WireMsg* reply = p.as<raft::WireMsg>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->type, raft::MsgType::kAppendReply);
  EXPECT_TRUE(reply->success);
  EXPECT_EQ(reply->match_index, 2u);
  EXPECT_TRUE(reply->entries.empty());
  EXPECT_GE(reply->entries.capacity(), 2u);
}

// The last other holder reads the value on another thread and drops its
// copy there; the owner rewrites as soon as it sees itself the sole holder,
// without joining first. The read must happen before the rewrite's writes:
// under ThreadSanitizer, a count read without acquire ordering shows up
// here as a data race on the message.
TEST(PayloadRewrite, RewritesAfterAnotherThreadDropsItsCopy) {
  raft::WireMsg w;
  w.term = 3;
  w.entries.push_back({3, Payload(zab::Ack{9})});
  Payload owner(std::move(w));
  raft::Term seen_term = 0;
  std::uint64_t seen_zxid = 0;
  std::thread receiver([copy = owner, &seen_term, &seen_zxid]() mutable {
    const raft::WireMsg& m = *copy.as<raft::WireMsg>();
    seen_term = m.term;
    seen_zxid = m.entries.front().payload.as<zab::Ack>()->zxid;
    copy = Payload();
  });
  while (!owner.rewrite<raft::WireMsg>([](raft::WireMsg& m) {
    m.term = 4;
    m.entries.clear();
  }))
    std::this_thread::yield();
  receiver.join();
  EXPECT_EQ(seen_term, 3u);
  EXPECT_EQ(seen_zxid, 9u);
  EXPECT_EQ(owner.as<raft::WireMsg>()->term, 4u);
  EXPECT_EQ(owner.wire_bytes(), 64u);
}

/// `n` requests whose keys are `first`, first + 1, ...
std::vector<kv::Request> requests(std::size_t n, std::uint64_t first) {
  std::vector<kv::Request> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i].key = first + i;
  return v;
}

/// The keys of the requests a ClientBatch payload carries.
std::vector<std::uint64_t> keys_of(const Payload& p) {
  std::vector<std::uint64_t> keys;
  for (const kv::Request& r : p.as<kv::ClientBatch>()->reqs)
    keys.push_back(r.key);
  return keys;
}

TEST(PayloadRewriteBody, RefusesAndLeavesThePayloadUntouched) {
  const std::vector<kv::Request> sent = requests(3, 10);
  Payload p = Payload::with_body<kv::ClientBatch>(sent);
  const void* const block = p.raw();
  const std::vector<std::uint64_t> keys{10, 11, 12};
  const auto untouched = [&] {
    EXPECT_EQ(p.raw(), block);
    EXPECT_EQ(p.tag(), PayloadTag::kKvClientBatch);
    EXPECT_EQ(p.wire_bytes(), 24u + 40 * 3);
    EXPECT_EQ(keys_of(p), keys);
  };
  const std::vector<kv::Request> shorter = requests(1, 20);
  {
    const Message in_flight(1, 2, p);
    EXPECT_FALSE(p.rewrite_body<kv::ClientBatch>(shorter));
    untouched();
  }
  // One element past the block's capacity.
  EXPECT_FALSE(p.rewrite_body<kv::ClientBatch>(requests(4, 20)));
  untouched();
  // Same element type, another tag.
  EXPECT_FALSE(p.rewrite_body<zab::Forward>(shorter));
  EXPECT_FALSE(p.rewrite_body<kv::ReplyBatch>({}));
  untouched();

  Payload empty;
  EXPECT_FALSE(empty.rewrite_body<kv::ClientBatch>(shorter));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.raw(), nullptr);
  EXPECT_EQ(empty.wire_bytes(), 0u);

  // The in-flight copy is gone: the same body now refills the block.
  EXPECT_TRUE(p.rewrite_body<kv::ClientBatch>(shorter));
  EXPECT_EQ(p.raw(), block);
  EXPECT_EQ(keys_of(p), std::vector<std::uint64_t>{20});
}

TEST(PayloadRewriteBody, RefillsAShorterThenALongerBodyInItsBlock) {
  Payload p = Payload::with_body<kv::ClientBatch>(requests(4, 0));
  const void* const block = p.raw();
  const std::vector<kv::Request> one = requests(1, 100);
  const std::vector<kv::Request> four = requests(4, 200);

  std::uint64_t before = canopus::bench::heap_allocations();
  ASSERT_TRUE(p.rewrite_body<kv::ClientBatch>(one));
  EXPECT_EQ(canopus::bench::heap_allocations() - before, 0u);
  EXPECT_EQ(p.raw(), block);
  EXPECT_EQ(p.wire_bytes(), 24u + 40 * 1);
  EXPECT_EQ(keys_of(p), std::vector<std::uint64_t>{100});
  // Longer again, up to the capacity with_body gave the block.
  before = canopus::bench::heap_allocations();
  ASSERT_TRUE(p.rewrite_body<kv::ClientBatch>(four));
  EXPECT_EQ(canopus::bench::heap_allocations() - before, 0u);
  EXPECT_EQ(p.raw(), block);
  EXPECT_EQ(p.wire_bytes(), 24u + 40 * 4);
  EXPECT_EQ(keys_of(p), (std::vector<std::uint64_t>{200, 201, 202, 203}));
  EXPECT_EQ(Message(1, 2, p).wire_bytes(), 24u + 40 * 4);
  // The span views the block, not the caller's buffer.
  EXPECT_NE(p.as<kv::ClientBatch>()->reqs.data(), four.data());

  std::vector<kv::Completion> done(3);
  done[2].value = 7;
  Payload r = Payload::with_body<kv::ReplyBatch>(done);
  const void* const reply_block = r.raw();
  ASSERT_TRUE(r.rewrite_body<kv::ReplyBatch>(std::span(done).first(1)));
  EXPECT_EQ(r.raw(), reply_block);
  EXPECT_EQ(r.wire_bytes(), 24u + 24 * 1);
  ASSERT_TRUE(r.rewrite_body<kv::ReplyBatch>(done));
  EXPECT_EQ(r.raw(), reply_block);
  EXPECT_EQ(r.wire_bytes(), 24u + 24 * 3);
  EXPECT_EQ(r.as<kv::ReplyBatch>()->done[2].value, 7u);
}

// RewritesAfterAnotherThreadDropsItsCopy for a body refill: the receiver's
// reads of the body happen before the owner's copy over it.
TEST(PayloadRewriteBody, RefillsAfterAnotherThreadDropsItsCopy) {
  Payload owner = Payload::with_body<kv::ClientBatch>(requests(2, 5));
  std::uint64_t seen_first = 0;
  std::uint64_t seen_last = 0;
  std::thread receiver(
      [copy = owner, &seen_first, &seen_last]() mutable {
        const std::span<const kv::Request> reqs =
            copy.as<kv::ClientBatch>()->reqs;
        seen_first = reqs.front().key;
        seen_last = reqs.back().key;
        copy = Payload();
      });
  const std::vector<kv::Request> next = requests(1, 9);
  while (!owner.rewrite_body<kv::ClientBatch>(next))
    std::this_thread::yield();
  receiver.join();
  EXPECT_EQ(seen_first, 5u);
  EXPECT_EQ(seen_last, 6u);
  EXPECT_EQ(keys_of(owner), std::vector<std::uint64_t>{9});
  EXPECT_EQ(owner.wire_bytes(), 24u + 40);
}

}  // namespace
}  // namespace canopus::simnet
