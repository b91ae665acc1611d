// Hardware-assisted atomic broadcast (§4.3, first option).
//
// Models a ToR switch with an atomic-broadcast primitive: a sender hands
// the switch one frame; the switch stamps it with a rack-global sequence
// number and replicates it to every member port in hardware. All members
// therefore observe ONE total order — the switch's arrival order — with a
// single NIC transmission per broadcast (vs. the Raft variant's per-peer
// unicasts and acks).
//
// The "switch" is a SequencerState shared by the members of a super-leaf —
// the simulation stand-in for the ToR ASIC. Receivers deliver strictly in
// sequence order. Failure detection uses switch-sequenced heartbeats: a
// member that misses kSwitchMissLimit heartbeat windows is declared failed by
// a FailNotice that itself travels through the sequencer, so every
// survivor observes the failure at the same point in the delivery order —
// the same consistent-exclusion property the Raft variant provides via
// no-op commits.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rbcast/broadcast.h"
#include "simnet/network.h"

namespace canopus::rbcast {

/// The per-super-leaf "ToR switch": a shared sequence counter. In hardware
/// this is the egress pipeline's ordering; in the simulation every member
/// holds a pointer to the same state.
struct SequencerState {
  std::uint64_t next_seq = 0;
};

/// Interval between a member's switch-sequenced heartbeats.
inline constexpr Time kSwitchHeartbeat = 15 * kMillisecond;
/// Heartbeat windows a member may miss before it is declared failed.
inline constexpr int kSwitchMissLimit = 4;

/// One switch-sequenced frame: payload, heartbeat, or failure notice. The
/// inner payload rides the bus too, so the per-member fan-out and the
/// out-of-order buffer share one allocation of the (possibly huge) body.
struct SwitchFrame {
  std::uint64_t seq = 0;
  NodeId origin = kInvalidNode;
  enum class Kind : std::uint8_t { kPayload, kHeartbeat, kFail } kind =
      Kind::kPayload;
  NodeId failed = kInvalidNode;  // for kFail
  simnet::Payload payload;

  /// A 32-byte sequencing header on the inner payload; heartbeats and
  /// failure notices are 48 bytes.
  std::size_t wire_bytes() const {
    return kind == Kind::kPayload ? payload.wire_bytes() + 32 : 48;
  }
};

class SwitchBroadcast final : public Broadcast {
 public:
  /// All members of the super-leaf share `sequencer`. The owning Process
  /// forwards its incoming messages into handle().
  ///
  /// Modelling note: the fan-out is conservatively charged as per-member
  /// unicasts at the sender NIC; real switch replication would charge one
  /// transmission. Even so the substrate removes the Raft variant's acks,
  /// commit notifications and quorum waits.
  SwitchBroadcast(NodeId self, std::vector<NodeId> members,
                  std::shared_ptr<SequencerState> sequencer,
                  simnet::ClockHandle sim, simnet::NetHandle net, Callbacks cb);

  void start() override;
  void stop() override;
  void broadcast(simnet::Payload payload) override;
  bool handle(const simnet::Message& m) override;
  void remove_member(NodeId peer) override;
  void add_member(NodeId peer) override;
  bool is_member(NodeId peer) const override;

 private:
  void emit(SwitchFrame f);
  void deliver_ready();
  void heartbeat_tick();

  NodeId self_;
  std::vector<NodeId> members_;
  std::shared_ptr<SequencerState> seq_;
  simnet::ClockHandle sim_;
  simnet::NetHandle net_;
  Callbacks cb_;

  std::map<std::uint64_t, SwitchFrame> pending_;  // out-of-order buffer
  std::uint64_t next_deliver_ = 0;
  std::unordered_map<NodeId, Time> last_heard_;
  std::unordered_set<NodeId> declared_failed_;
  simnet::EventId heartbeat_timer_ = simnet::kInvalidEvent;
  bool running_ = false;
};

}  // namespace canopus::rbcast

CANOPUS_REGISTER_PAYLOAD(canopus::rbcast::SwitchFrame, kSwitchFrame);
