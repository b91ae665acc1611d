// The typed message bus (simnet/payload.h): tag dispatch, the closed tag
// registry, and the shared-allocation broadcast semantics that Canopus
// proposals rely on.
#include "simnet/payload.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
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

TEST(PayloadTest, WrongTypeAccessReturnsNull) {
  Payload p(std::string("hello"));
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
  const std::vector<PayloadTag> tags = {
      PayloadTraits<raft::WireMsg>::tag,
      PayloadTraits<raft::KvBatch>::tag,
      PayloadTraits<raft::KvForward>::tag,
      PayloadTraits<raft::KvSnapshot>::tag,
      PayloadTraits<proto::Proposal>::tag,
      PayloadTraits<proto::ProposalRequest>::tag,
      PayloadTraits<proto::JoinRequest>::tag,
      PayloadTraits<proto::JoinAck>::tag,
      PayloadTraits<kv::ClientBatch>::tag,
      PayloadTraits<kv::ReplyBatch>::tag,
      PayloadTraits<zab::Forward>::tag,
      PayloadTraits<zab::Propose>::tag,
      PayloadTraits<zab::Ack>::tag,
      PayloadTraits<zab::CommitMsg>::tag,
      PayloadTraits<zab::Inform>::tag,
      PayloadTraits<zab::SyncReq>::tag,
      PayloadTraits<zab::Snapshot>::tag,
      PayloadTraits<epaxos::PreAccept>::tag,
      PayloadTraits<epaxos::PreAcceptOk>::tag,
      PayloadTraits<epaxos::Commit>::tag,
      PayloadTraits<epaxos::Fetch>::tag,
      PayloadTraits<epaxos::CommitFull>::tag,
      PayloadTraits<epaxos::SeqProbe>::tag,
      PayloadTraits<epaxos::SeqInfo>::tag,
      PayloadTraits<epaxos::SnapRequest>::tag,
      PayloadTraits<epaxos::SnapshotMsg>::tag,
      PayloadTraits<rbcast::SwitchFrame>::tag,
      PayloadTraits<std::string>::tag,
      PayloadTraits<int>::tag,
      PayloadTraits<char>::tag,
  };
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
  Message fetched(10, 20, prop.wire_bytes(), prop);
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
  Message m(1, 2, w.wire_bytes(), w);
  ASSERT_NE(m.as<raft::WireMsg>(), nullptr);
  EXPECT_EQ(m.as<raft::WireMsg>()->group, 5u);
  EXPECT_EQ(m.as<raft::WireMsg>()->term, 9u);
  EXPECT_EQ(m.as<kv::ClientBatch>(), nullptr);
}

}  // namespace
}  // namespace canopus::simnet
