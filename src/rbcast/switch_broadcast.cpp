#include "rbcast/switch_broadcast.h"

#include <algorithm>
#include <utility>

namespace canopus::rbcast {

SwitchBroadcast::SwitchBroadcast(NodeId self, std::vector<NodeId> members,
                                 std::shared_ptr<SequencerState> sequencer,
                                 simnet::ClockHandle sim, simnet::NetHandle net,
                                 Callbacks cb)
    : self_(self),
      members_(std::move(members)),
      seq_(std::move(sequencer)),
      sim_(sim),
      net_(net),
      cb_(std::move(cb)) {}

void SwitchBroadcast::start() {
  running_ = true;
  next_deliver_ = seq_->next_seq;  // join the stream at the current point
  for (NodeId m : members_) last_heard_[m] = sim_.now();
  heartbeat_tick();
}

void SwitchBroadcast::stop() {
  running_ = false;
  sim_.cancel(std::exchange(heartbeat_timer_, simnet::kInvalidEvent));
}

bool SwitchBroadcast::is_member(NodeId peer) const {
  return std::find(members_.begin(), members_.end(), peer) != members_.end();
}

void SwitchBroadcast::emit(SwitchFrame f) {
  // The switch stamps the frame on ingress: one rack-global sequence.
  f.seq = seq_->next_seq++;
  // One Payload for the whole fan-out: every member port shares the same
  // frame allocation (and, transitively, the same inner payload).
  const simnet::Payload frame(std::move(f));
  for (NodeId m : members_) {
    net_.send(simnet::Message(self_, m, frame));
  }
}

void SwitchBroadcast::broadcast(simnet::Payload payload) {
  if (!running_) return;
  SwitchFrame f;
  f.origin = self_;
  f.kind = SwitchFrame::Kind::kPayload;
  f.payload = std::move(payload);
  emit(std::move(f));
}

void SwitchBroadcast::heartbeat_tick() {
  if (!running_) return;
  SwitchFrame hb;
  hb.origin = self_;
  hb.kind = SwitchFrame::Kind::kHeartbeat;
  emit(std::move(hb));

  // Check for silent peers; a failure notice goes through the sequencer so
  // all survivors exclude the peer at the same point in delivery order.
  const Time deadline = kSwitchHeartbeat * kSwitchMissLimit;
  for (NodeId m : members_) {
    if (m == self_ || declared_failed_.contains(m)) continue;
    if (sim_.now() - last_heard_[m] > deadline) {
      SwitchFrame fail;
      fail.origin = self_;
      fail.kind = SwitchFrame::Kind::kFail;
      fail.failed = m;
      emit(std::move(fail));
    }
  }
  heartbeat_timer_ =
      sim_.after(kSwitchHeartbeat, [this] { heartbeat_tick(); });
}

bool SwitchBroadcast::handle(const simnet::Message& m) {
  const auto* f = m.as<SwitchFrame>();
  if (f == nullptr) return false;
  if (!running_) return true;
  pending_.emplace(f->seq, *f);
  deliver_ready();
  return true;
}

void SwitchBroadcast::deliver_ready() {
  // Strict sequence order = the switch's total order. A gap means an
  // in-flight frame (FIFO links fill it shortly) or a frame sequenced by a
  // member that crashed between stamping and transmitting; the crash case
  // is resolved when its FailNotice arrives and we skip its gap.
  while (!pending_.empty()) {
    auto it = pending_.begin();
    if (it->first > next_deliver_) {
      // Gap: skip only if every lower seq could no longer arrive — crashed
      // members' stamped-but-untransmitted frames. Conservatively wait;
      // heartbeats from live members keep the stream moving because every
      // heartbeat consumes a sequence number.
      break;
    }
    SwitchFrame f = std::move(it->second);
    pending_.erase(it);
    if (f.seq < next_deliver_) continue;  // duplicate
    next_deliver_ = f.seq + 1;

    last_heard_[f.origin] = sim_.now();
    switch (f.kind) {
      case SwitchFrame::Kind::kPayload:
        if (cb_.deliver) cb_.deliver(f.origin, f.payload);
        break;
      case SwitchFrame::Kind::kHeartbeat:
        break;
      case SwitchFrame::Kind::kFail:
        if (!declared_failed_.contains(f.failed)) {
          declared_failed_.insert(f.failed);
          if (cb_.on_peer_failed) cb_.on_peer_failed(f.failed);
        }
        break;
    }
  }
}

void SwitchBroadcast::remove_member(NodeId peer) {
  members_.erase(std::remove(members_.begin(), members_.end(), peer),
                 members_.end());
  declared_failed_.insert(peer);
}

void SwitchBroadcast::add_member(NodeId peer) {
  if (!is_member(peer)) members_.push_back(peer);
  declared_failed_.erase(peer);
  last_heard_[peer] = sim_.now();
}

}  // namespace canopus::rbcast
