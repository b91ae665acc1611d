// The typed message bus (simnet/payload.h): tag dispatch, the closed tag
// registry, the wire size each payload records at publication, and the
// shared-allocation broadcast semantics that Canopus proposals rely on.
#include "simnet/payload.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

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
  prop.writes = std::make_shared<const proto::WriteSet>(
      std::vector<kv::Request>(1000));
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
  prop.writes = std::make_shared<const proto::WriteSet>(
      std::vector<kv::Request>(512));
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

}  // namespace
}  // namespace canopus::simnet
