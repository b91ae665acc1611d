// Raft wire messages. All four RPCs are modelled as asynchronous messages
// (request and response are separate Messages on the simulated network).
#pragma once

#include <vector>

#include "raft/log.h"

namespace canopus::raft {

enum class MsgType {
  kRequestVote,
  kVoteReply,
  kAppendEntries,  // doubles as heartbeat when entries is empty
  kAppendReply,
  /// Leader -> follower state transfer (Raft §7): sent when the follower's
  /// next index has been compacted away. Carries the snapshot payload plus
  /// the last included index/term in prev_log_index/prev_log_term.
  kInstallSnapshot,
  /// Not part of Raft proper: sent by the reliable-broadcast layer when it
  /// receives traffic for a group it has already dissolved (§4.3 "all the
  /// nodes leave that group"). Tells stragglers where the group's log ends
  /// (last_log_index/last_log_term) so they finish applying it and dissolve
  /// the group too. A reply to kDissolvedTailRequest also carries the
  /// entries after prev_log_index.
  kGroupDissolved,
  /// Not part of Raft proper: a straggler whose log lacks the dissolved
  /// group's final entry asks for the entries after its commit index
  /// (prev_log_index).
  kDissolvedTailRequest,
};

/// Every field goes on the wire. RaftNode::send_wire compares them all to
/// tell whether a message repeats the last one sent (raft.cpp's
/// same_header): a new field must be compared there too.
struct WireMsg {
  GroupId group = 0;
  MsgType type = MsgType::kAppendEntries;
  Term term = 0;

  // RequestVote
  LogIndex last_log_index = 0;
  Term last_log_term = 0;

  // VoteReply
  bool vote_granted = false;

  // AppendEntries
  LogIndex prev_log_index = 0;
  Term prev_log_term = 0;
  LogIndex leader_commit = 0;
  std::vector<LogEntry> entries;

  // AppendReply
  bool success = false;
  LogIndex match_index = 0;

  // InstallSnapshot: opaque state-machine snapshot (the owner's registered
  // payload type; may be empty when the state machine is external, e.g. the
  // reliable-broadcast groups whose deliveries are covered by a
  // Canopus-level snapshot). prev_log_index/prev_log_term double as the
  // last included index/term.
  simnet::Payload snapshot;
  std::size_t snapshot_bytes = 0;

  /// Wire size estimate: fixed header + payload bytes of carried entries
  /// (or the carried snapshot).
  std::size_t wire_bytes() const {
    std::size_t b = 64 + snapshot_bytes;
    for (const LogEntry& e : entries) b += 16 + e.bytes;
    return b;
  }
};

}  // namespace canopus::raft

CANOPUS_REGISTER_PAYLOAD(canopus::raft::WireMsg, kRaftWire);
