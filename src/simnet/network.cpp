#include "simnet/network.h"

#include <cassert>
#include <cmath>

namespace canopus::simnet {

namespace {
std::uint64_t pair_key(NodeId a, NodeId b) {
  return (std::uint64_t{a} << 32) | b;
}
}  // namespace

Network::Network(Simulator& sim, Topology topo, CpuModel cpu)
    : sim_(sim),
      topo_(std::move(topo)),
      cpu_(cpu),
      procs_(topo_.num_nodes(), nullptr),
      up_(topo_.num_nodes(), true),
      link_free_(topo_.num_links(), 0),
      cpu_free_(topo_.num_nodes(), 0),
      link_bytes_(topo_.num_links(), 0),
      cpu_backlog_(topo_.num_nodes(), 0),
      link_backlog_(topo_.num_links(), 0),
      cpu_factor_(topo_.num_nodes(), 1.0),
      link_memo_(topo_.num_links()) {
  // Register the topology with the kernel's lane tables (a no-op when
  // configure_shards() already installed a sharded map), then size the
  // per-shard scratch slots: one per shard plus one for control/serial
  // contexts.
  sim_.init_topology(topo_.num_nodes(), topo_.num_links());
  slots_.resize(sim_.num_shards() + 1);
}

void Network::attach(NodeId id, Process& proc) {
  assert(id < procs_.size());
  procs_[id] = &proc;
  proc.sim_ = &sim_;
  proc.net_ = this;
  proc.id_ = id;
  // Per-process RNG stream: a function of the trial seed and the node id
  // only, so draws are reproducible under any execution schedule.
  proc.rng_ = Rng(derive_seed(derive_seed(sim_.seed(), 0x90de5eedULL), id));
  auto start = [&proc] { proc.on_start(); };
  static_assert(InlineFn::fits_inline<decltype(start)>);
  // on_start runs on the node's own lane (and therefore in its shard):
  // everything it schedules — timers, the first sends — stays shard-local.
  sim_.at_node(id, 0, std::move(start));
}

void Network::on_message_event(MessageEvent&& ev) {
  switch (ev.kind) {
    case MessageEvent::Kind::kHop:
      hop_arrival(std::move(ev.msg), ev.hop);
      break;
    case MessageEvent::Kind::kDeliver:
      deliver(std::move(ev.msg), sim_.now());
      break;
    case MessageEvent::Kind::kDispatch:
      dispatch(std::move(ev.msg));
      break;
  }
}

void Network::send(Message m) {
  const NodeId src = m.src();
  const NodeId dst = m.dst();
  // Attach-time invariant; debug-only so the release hot path pays nothing.
  assert(src < procs_.size() && dst < procs_.size());

  if (!up_[src]) return;  // a crashed node sends nothing
  if (src == dst) {
    send_local(std::move(m));
    return;
  }
  // Fast path: with no severed pairs (the overwhelmingly common case) skip
  // the hash probe entirely. Same discipline for every gray map below:
  // an empty container costs one load + branch per send.
  if (!severed_.empty() && severed_.contains(pair_key(src, dst))) {
    ++slot().stats.dropped;
    return;
  }

  const Time now = sim_.now();

  if (!flapping_.empty() && flap_down(pair_key(src, dst), now)) {
    ++slot().stats.dropped;
    return;
  }

  // Sender CPU: serialize + syscall cost, serialized per node.
  cpu_backlog_[src] = std::max(cpu_backlog_[src], cpu_free_[src] - now);
  const Time t =
      std::max(now, cpu_free_[src]) +
      scaled_cpu(src, cpu_.send_fixed + cpu_byte_cost(m.wire_bytes()));
  cpu_free_[src] = t;

  NetworkStats& st = slot().stats;
  ++st.messages;
  st.bytes += m.wire_bytes();

  // Bounded reordering: the jitter delays the wire departure, not the
  // sender's CPU, so two back-to-back sends can swap on the link while the
  // sender's serial-CPU accounting stays FIFO.
  Time depart = t;
  if (!reorder_.empty()) {
    auto it = reorder_.find(pair_key(src, dst));
    if (it != reorder_.end()) {
      depart += static_cast<Time>(it->second.rng.below(
          static_cast<std::uint64_t>(it->second.max_jitter) + 1));
      ++st.reordered;
    }
  }

  // Duplication: a byte-identical echo enters the wire echo_delay later
  // (the Payload copy is a refcount bump, not an allocation).
  bool dup = false;
  Time echo_at = 0;
  Message echo;
  if (!dup_echo_.empty()) {
    auto it = dup_echo_.find(pair_key(src, dst));
    if (it != dup_echo_.end()) {
      dup = true;
      echo = m;
      echo_at = depart + it->second;
      ++st.messages;
      st.bytes += m.wire_bytes();
      ++st.duplicated;
    }
  }

  // Store-and-forward, one event per hop: a link's transmission slot is
  // claimed when the message actually ARRIVES at that link. (Reserving all
  // hops inside this call would order reservations by send-call time, so a
  // WAN message — which reaches the destination's down-link only ~66 ms
  // from now — would block intra-DC messages that physically arrive there
  // first.)
  //
  // Lanes/shards: the first-hop arrival is produced by the sender's node
  // lane and executes in the sender's shard (make_shard_map guarantees a
  // path's first link is owned by its source's shard).
  sim_.at_message(depart, /*lane=*/src, sim_.node_shard(src),
                  make_event(std::move(m), MessageEvent::Kind::kHop, 0));
  if (dup)
    sim_.at_message(echo_at, /*lane=*/src, sim_.node_shard(src),
                    make_event(std::move(echo), MessageEvent::Kind::kHop, 0));
}

void Network::hop_arrival(Message&& m, std::size_t hop) {
  const Path path = topo_.path(m.src(), m.dst());
  if (hop >= path.size()) {
    deliver(std::move(m), sim_.now());
    return;
  }
  const LinkId l = path[hop];
  const Time now = sim_.now();
  link_backlog_[l] = std::max(link_backlog_[l], link_free_[l] - now);
  const Time start = std::max(now, link_free_[l]);
  const Time serialize = link_serialize(l, m.wire_bytes());
  link_free_[l] = start + serialize;
  link_bytes_[l] += m.wire_bytes();
  const Time next = start + serialize + topo_.link(l).latency;
  // The next-hop arrival is produced by THIS link's lane and executes in
  // the shard owning the next link (the destination node's shard past the
  // end — the same shard, since a path's last link is owned by it). When
  // those differ the hand-off crosses shards, and the crossed link's
  // latency — included in `next` — is exactly the lookahead the kernel
  // synchronizes on.
  const std::uint32_t next_shard = hop + 1 < path.size()
                                       ? sim_.link_shard(path[hop + 1])
                                       : sim_.node_shard(m.dst());
  sim_.at_message(next, sim_.link_lane(l), next_shard,
                  make_event(std::move(m), MessageEvent::Kind::kHop, hop + 1));
}

void Network::send_local(Message m) {
  const NodeId src = m.src();
  if (!up_[src]) return;
  const Time t = std::max(sim_.now(), cpu_free_[src]) +
                 scaled_cpu(src, cpu_.send_fixed);
  cpu_free_[src] = t;
  sim_.at_message(t, /*lane=*/src, sim_.node_shard(src),
                  make_event(std::move(m), MessageEvent::Kind::kDeliver));
}

void Network::deliver(Message&& m, Time arrival) {
  const NodeId dst = m.dst();
  if (!up_[dst] || procs_[dst] == nullptr) {
    ++slot().stats.dropped;
    return;
  }
  // Receiver CPU: deserialization + handler dispatch, serialized per node.
  cpu_backlog_[dst] =
      std::max(cpu_backlog_[dst], cpu_free_[dst] - arrival);
  const Time ready =
      std::max(arrival, cpu_free_[dst]) +
      scaled_cpu(dst, cpu_.recv_fixed + cpu_byte_cost(m.wire_bytes()));
  cpu_free_[dst] = ready;
  // Delivery and dispatch both execute in the destination's shard.
  sim_.at_message(ready, /*lane=*/dst, sim_.node_shard(dst),
                  make_event(std::move(m), MessageEvent::Kind::kDispatch));
}

void Network::dispatch(Message&& m) {
  if (!up_[m.dst()]) {
    ++slot().stats.dropped;
    return;
  }
  if (trace_) trace_(sim_.now(), m);
  procs_[m.dst()]->on_message(m);
}

void Network::crash(NodeId n) { up_[n] = false; }
void Network::recover(NodeId n) { up_[n] = true; }
void Network::sever(NodeId a, NodeId b) { severed_.insert(pair_key(a, b)); }
void Network::heal(NodeId a, NodeId b) { severed_.erase(pair_key(a, b)); }

void Network::set_cpu_factor(NodeId n, double factor) {
  assert(n < cpu_factor_.size() && factor > 0);
  cpu_factor_[n] = factor;
}

void Network::flap(NodeId a, NodeId b, Time period) {
  assert(period > 0);
  flapping_[pair_key(a, b)] = {sim_.now(), period};
}

void Network::flap_stop(NodeId a, NodeId b) {
  flapping_.erase(pair_key(a, b));
}

void Network::duplicate(NodeId a, NodeId b, Time echo_delay) {
  assert(echo_delay >= 0);
  dup_echo_[pair_key(a, b)] = echo_delay;
}

void Network::duplicate_stop(NodeId a, NodeId b) {
  dup_echo_.erase(pair_key(a, b));
}

void Network::reorder(NodeId a, NodeId b, Time max_jitter) {
  assert(max_jitter >= 0);
  ReorderState& s = reorder_[pair_key(a, b)];
  s.max_jitter = max_jitter;
  // The jitter stream depends only on (trial seed, pair): the same window
  // re-opened draws the same sequence, independent of anything else the
  // storm did — so a minimized schedule replays the surviving window's
  // jitters bit-identically.
  s.rng = Rng(derive_seed(derive_seed(sim_.seed(), 0x6a177e5ULL),
                          pair_key(a, b)));
}

void Network::reorder_stop(NodeId a, NodeId b) {
  reorder_.erase(pair_key(a, b));
}

void Network::set_clock_skew(NodeId n, double rate, Time offset) {
  sim_.set_clock_skew(n, rate, offset);
}

}  // namespace canopus::simnet
