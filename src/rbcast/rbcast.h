// Reliable broadcast within a super-leaf (paper §4.3).
//
// "Each node in a super-leaf creates its own dedicated Raft group and
//  becomes the initial leader of the group. All other nodes in the
//  super-leaf participate as followers. ... If a node fails, the other
//  nodes detect that the leader of the group has failed, and elect a new
//  leader for the group ... the new leader completes any incomplete log
//  replication, after which all the nodes leave that group."
//
// This gives the textbook reliable-broadcast properties (validity,
// integrity, agreement) for live super-leaf members: every payload a live
// node broadcasts is eventually delivered to all live members, and all live
// members deliver the same set of payloads per group. Tolerates F failures
// with 2F+1 members; if a majority of a super-leaf fails, the whole
// super-leaf fails (Canopus then stalls, §6).
//
// The Raft election machinery doubles as the super-leaf failure detector:
// when some *other* node wins the election for group g (g is named after
// its creator), the creator is declared failed and reported upward — that
// report is what Canopus piggybacks as a membership update (§4.6).
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "raft/raft.h"
#include "rbcast/broadcast.h"

namespace canopus::rbcast {

class ReliableBroadcast final : public Broadcast {
 public:
  /// The owning Process forwards its incoming messages into handle(); the
  /// groups' Raft wire messages leave through `net` from `self`.
  ReliableBroadcast(NodeId self, std::vector<NodeId> members,
                    simnet::ClockHandle sim, simnet::NetHandle net,
                    Callbacks cb);

  /// Starts all per-node groups; `self`'s own group bootstraps with self as
  /// leader (no election needed — group ids fix the initial leader).
  void start() override;

  /// Crash-stop: silences all groups.
  void stop() override;

  /// Reliably broadcasts `payload` to all live super-leaf members,
  /// including the local node (self-delivery happens at local commit).
  void broadcast(simnet::Payload payload) override;

  /// Routes an incoming Raft wire message to the right group.
  void on_message(NodeId src, const raft::WireMsg& m);

  /// Broadcast interface: consumes raft::WireMsg-carrying messages.
  bool handle(const simnet::Message& m) override {
    const auto* w = m.as<raft::WireMsg>();
    if (w == nullptr) return false;
    on_message(m.src(), *w);
    return true;
  }

  /// Membership: removes a failed/retired peer from every group's member
  /// list (the failed node's own group is dissolved once drained).
  void remove_member(NodeId peer) override;

  /// Membership: admits a joining peer into every group's member list and
  /// creates its broadcast group.
  void add_member(NodeId peer) override;

  const std::vector<NodeId>& members() const { return members_; }
  bool is_member(NodeId n) const override;

 private:
  void make_group(NodeId origin);

  NodeId self_;
  std::vector<NodeId> members_;
  simnet::ClockHandle sim_;
  simnet::NetHandle net_;
  Callbacks cb_;
  /// One Raft group per member, keyed by the member (== group id).
  std::unordered_map<raft::GroupId, std::unique_ptr<raft::RaftNode>> groups_;
  std::unordered_set<raft::GroupId> dissolved_;
  /// Dissolved groups, stopped, kept to answer stragglers that missed the
  /// group's final entry. One per peer: a rejoin replaces it.
  std::unordered_map<raft::GroupId, std::unique_ptr<raft::RaftNode>> retired_;
  bool started_ = false;
};

}  // namespace canopus::rbcast
