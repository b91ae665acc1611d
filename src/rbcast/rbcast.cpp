#include "rbcast/rbcast.h"

#include <algorithm>
#include <cassert>

namespace canopus::rbcast {

ReliableBroadcast::ReliableBroadcast(NodeId self, std::vector<NodeId> members,
                                     simnet::ClockHandle sim,
                                     simnet::NetHandle net, Callbacks cb)
    : self_(self),
      members_(std::move(members)),
      sim_(sim),
      net_(net),
      cb_(std::move(cb)) {
  assert(std::find(members_.begin(), members_.end(), self_) !=
         members_.end());
}

bool ReliableBroadcast::is_member(NodeId n) const {
  return std::find(members_.begin(), members_.end(), n) != members_.end();
}

void ReliableBroadcast::make_group(NodeId origin) {
  raft::RaftNode::Callbacks cb;
  cb.on_commit = [this, origin](raft::LogIndex, const raft::LogEntry& e) {
    cb_.deliver(origin, e.payload);
  };
  // NOTE: the failure signal fires on the *no-op commit*, not on the
  // election itself. The no-op is log-ordered after every entry the failed
  // leader managed to commit, so every survivor observes the failure at the
  // same point relative to the origin's delivered broadcasts — exactly the
  // "excluded from contributing" semantics Canopus' agreement proof needs
  // (Appendix A, L1.1).
  cb.on_noop_commit = [this, origin](NodeId leader, raft::Term) {
    if (leader != origin && !dissolved_.contains(origin)) {
      dissolved_.insert(origin);
      // Defer the upcall: the handler typically dissolves this very group
      // (remove_member stops and retires the RaftNode whose apply loop we
      // are in).
      sim_.after(0, [this, origin] {
        if (cb_.on_peer_failed) cb_.on_peer_failed(origin);
      });
    }
  };
  groups_.emplace(origin,
                  std::make_unique<raft::RaftNode>(
                      raft::GroupId{origin}, self_, members_, sim_, net_,
                      std::move(cb)));
}

void ReliableBroadcast::start() {
  started_ = true;
  for (NodeId m : members_) make_group(m);
  for (auto& [origin, node] : groups_)
    node->start(/*bootstrap_as_leader=*/origin == self_);
}

void ReliableBroadcast::stop() {
  for (auto& [origin, node] : groups_) node->stop();
  started_ = false;
}

void ReliableBroadcast::broadcast(simnet::Payload payload) {
  auto it = groups_.find(self_);
  // A missing own group means this node was suspected failed by its peers
  // and its group dissolved (possible under severe overload). The layer
  // above self-fences on that signal; any broadcast racing with it is
  // dropped, which is indistinguishable from crashing a moment earlier.
  if (it == groups_.end()) return;
  it->second->propose(std::move(payload));
}

void ReliableBroadcast::on_message(NodeId src, const raft::WireMsg& m) {
  if (!started_) return;

  if (m.type == raft::MsgType::kGroupDissolved) {
    // A peer already dissolved this group. Commit our log through the
    // group's final entry; the surfaced no-op triggers the normal failure
    // upcall. If we missed that entry (the replacement leader's no-op
    // reached a majority and the group was dissolved before our repair
    // round trip), ask the dissolver for the tail — once per bare notice,
    // so a dissolver that cannot serve it is not asked in a loop.
    auto it = groups_.find(m.group);
    if (it != groups_.end() && !dissolved_.contains(m.group) &&
        !it->second->finish_dissolution(m) && m.entries.empty()) {
      raft::WireMsg request;
      request.group = m.group;
      request.type = raft::MsgType::kDissolvedTailRequest;
      request.prev_log_index = it->second->commit_index();
      net_.send(simnet::Message(self_, src, std::move(request)));
    }
    return;
  }

  auto it = groups_.find(m.group);
  if (it == groups_.end()) {
    // Straggler traffic for a group we dissolved: gossip the dissolution,
    // with the tail when asked, so the sender can finish and stop
    // electioneering.
    if (auto r = retired_.find(m.group); r != retired_.end()) {
      raft::WireMsg notice;
      if (r->second->dissolution_notice(m, notice))
        net_.send(simnet::Message(self_, src, std::move(notice)));
    }
    return;
  }
  it->second->on_message(src, m);
}

void ReliableBroadcast::remove_member(NodeId peer) {
  if (!is_member(peer)) return;
  members_.erase(std::remove(members_.begin(), members_.end(), peer),
                 members_.end());
  // The failed node's own group is dissolved: "all the nodes leave that
  // group to eliminate the group from the super-leaf" (§4.3). By the time
  // Canopus applies this membership update the replacement leader has
  // already drained any incomplete replication through normal Raft commits.
  dissolved_.insert(peer);
  if (auto it = groups_.find(peer); it != groups_.end()) {
    it->second->stop();
    retired_[peer] = std::move(it->second);
    groups_.erase(it);
  }
  // Shrink every surviving group's membership (single-server change applied
  // at an agreed point on all live members).
  for (auto& [origin, node] : groups_) node->remove_member(peer);
}

void ReliableBroadcast::add_member(NodeId peer) {
  if (is_member(peer)) return;
  members_.push_back(peer);
  dissolved_.erase(peer);
  retired_.erase(peer);
  for (auto& [origin, node] : groups_) node->add_member(peer);
  // Create the joiner's own broadcast group on this node.
  if (!groups_.contains(peer)) {
    make_group(peer);
    if (started_) groups_[peer]->start(/*bootstrap_as_leader=*/false);
  }
}

}  // namespace canopus::rbcast
