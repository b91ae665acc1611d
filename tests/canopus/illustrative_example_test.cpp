// Reproduces the paper's illustrative example (§4.7 / Figure 2): six nodes
// in two super-leaves, a height-2 LOT, one consensus cycle — asserting the
// protocol-level behaviours the figure narrates.
#include <gtest/gtest.h>

#include "../testutil/canopus_harness.h"

namespace canopus::core {
namespace {

using testutil::CanopusCluster;

class IllustrativeExample : public ::testing::Test {
 protected:
  // Sx = {A, B, C} = nodes 0,1,2; Sy = {D, E, F} = nodes 3,4,5.
  IllustrativeExample() : c(2, 3) {}
  CanopusCluster c;
};

TEST_F(IllustrativeExample, TwoRoundsForHeightTwo) {
  ASSERT_EQ(c.lot()->height(), 2);
  std::vector<RoundId> rounds;
  c.node(2).on_round_done = [&](CycleId cy, RoundId r) {
    if (cy == 1) rounds.push_back(r);
  };
  c.write_at(kMillisecond, 0, 1, 1);  // A has pending request RA
  c.write_at(kMillisecond, 1, 2, 2);  // B has pending request RB
  c.sim().run_until(kSecond);
  // Node C participates in exactly rounds 1 and 2, in order (events 4, 7).
  ASSERT_EQ(rounds.size(), 2u);
  EXPECT_EQ(rounds[0], 1u);
  EXPECT_EQ(rounds[1], 2u);
}

TEST_F(IllustrativeExample, NodeCStartsWithEmptyProposal) {
  // Event 1-2: C receives A's proposal and starts its cycle with an empty
  // request list (φ); the consensus still completes and C commits both
  // requests.
  c.write_at(kMillisecond, 0, 1, 10);
  c.write_at(kMillisecond, 1, 2, 20);
  c.sim().run_until(kSecond);
  EXPECT_EQ(c.node(2).committed_writes(), 2u);
  EXPECT_EQ(c.node(2).store().read(1), 10u);
  EXPECT_EQ(c.node(2).store().read(2), 20u);
}

TEST_F(IllustrativeExample, RemoteRequestsBufferedUntilRoundFinishes) {
  // Event 3/5: a proposal-request for an unfinished round is buffered and
  // answered only after the local round completes. We assert the visible
  // consequence: Sy commits the identical order even though its
  // proposal-requests race ahead of Sx's round 1.
  c.write_at(kMillisecond, 3, 7, 70);  // D starts Sy's cycle first
  c.write_at(3 * kMillisecond, 0, 8, 80);
  c.sim().run_until(kSecond);
  ASSERT_TRUE(c.all_agree());
  EXPECT_EQ(c.node(5).store().read(7), 70u);
  EXPECT_EQ(c.node(5).store().read(8), 80u);
}

/// Stands in for a remote representative (§4.5): sends proposal-requests
/// from its own node id and logs every proposal it gets back.
class RequestProbe final : public simnet::Process {
 public:
  using Log = std::vector<std::pair<NodeId, proto::Proposal>>;
  explicit RequestProbe(Log& log) : log_(log) {}
  void request(NodeId dst, const proto::ProposalRequest& pr) { send(dst, pr); }
  void on_message(const simnet::Message& m) override {
    if (const auto* p = m.as<proto::Proposal>())
      log_.emplace_back(node_id(), *p);
  }

 private:
  Log& log_;
};

TEST(ParkedProposalRequests, AnsweredOnceEachInArrivalOrderWhenRoundCompletes) {
  // Event 3: A is asked for its super-leaf's state before its round 1 is
  // done (the first request is what starts A's cycle). Probes on spare
  // client machines send, 1 µs apart, two requests for A's height-1
  // ancestor and then one for the other super-leaf's vnode. A answers the
  // first two, in arrival order, once its round completes; the second
  // requester has the lower node id, so only arrival order puts it second.
  // The third request waits on a vnode A never merges: it gets nothing.
  simnet::RackConfig rc;
  rc.racks = 2;
  rc.servers_per_rack = 3;
  rc.clients_per_rack = 2;
  simnet::Cluster cluster = simnet::build_multi_rack(rc);
  const std::vector<NodeId> spare = cluster.clients;
  CanopusCluster c(std::move(cluster), {}, 42);

  RequestProbe::Log log;
  RequestProbe first(log), second(log), third(log);
  c.net().attach(spare[1], first);
  c.net().attach(spare[0], second);
  c.net().attach(spare[2], third);

  const NodeId a = c.server(0);
  const VnodeId own = c.lot()->ancestor(a, 1);
  const VnodeId other = c.lot()->ancestor(c.server(3), 1);
  ASSERT_NE(own, other);
  auto request_at = [&](Time t, RequestProbe& probe, VnodeId v) {
    c.sim().at(t, [&probe, a, v] {
      proto::ProposalRequest pr;
      pr.cycle = 1;
      pr.round = 2;
      pr.vnode = v;
      probe.request(a, pr);
    });
  };
  request_at(kMillisecond, first, own);
  request_at(kMillisecond + kMicrosecond, second, own);
  request_at(kMillisecond + 2 * kMicrosecond, third, other);
  c.sim().run_until(kSecond);

  ASSERT_GE(c.node(0).last_committed_cycle(), 1u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, spare[1]);
  EXPECT_EQ(log[1].first, spare[0]);
  for (const auto& [requester, p] : log) {
    EXPECT_EQ(p.cycle, 1u);
    EXPECT_EQ(p.vnode, own);
  }
}

TEST_F(IllustrativeExample, ConsensusOrderGroupsRequestSets) {
  // Event 7: the final order is a concatenation of per-node request sets
  // ({RD,RE,RF,RA,RC,RB} in the paper's example — set membership keeps
  // same-origin requests adjacent and in arrival order).
  for (std::uint64_t i = 0; i < 3; ++i) {
    c.write_at(kMillisecond, 0, 100 + i, i);  // A's set: 3 requests
    c.write_at(kMillisecond, 4, 200 + i, i);  // E's set: 3 requests
  }
  // Within each committed cycle, same-origin requests must be adjacent (a
  // request set is never split; sets may span several cycles because the
  // first submission immediately starts a cycle).
  std::size_t total = 0;
  bool contiguous = true;
  c.node(1).on_commit = [&](CycleId, const std::vector<kv::Request>& ws) {
    std::set<NodeId> closed;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (i > 0 && ws[i].origin != ws[i - 1].origin) {
        if (!closed.insert(ws[i - 1].origin).second) contiguous = false;
      }
      if (closed.contains(ws[i].origin)) contiguous = false;
    }
    total += ws.size();
  };
  c.sim().run_until(kSecond);
  EXPECT_EQ(total, 6u);
  EXPECT_TRUE(contiguous);
}

TEST_F(IllustrativeExample, ProposalNumbersOrderTheSets) {
  // The order of the two request sets is decided by the random proposal
  // numbers — deterministic under a fixed seed, and identical on all six
  // nodes.
  c.write_at(kMillisecond, 0, 1, 111);
  c.write_at(kMillisecond, 4, 1, 444);  // same key, different set
  c.sim().run_until(kSecond);
  ASSERT_TRUE(c.all_agree());
  const std::uint64_t final_value = c.node(0).store().read(1);
  EXPECT_TRUE(final_value == 111 || final_value == 444);
  for (std::size_t i = 1; i < 6; ++i)
    EXPECT_EQ(c.node(i).store().read(1), final_value);
}

}  // namespace
}  // namespace canopus::core
