// kv::ReplicaNode: the replicated key-value state machine every consensus
// system in this repository runs underneath its ordering protocol.
//
// Only the ordering protocol differs between the systems this repository
// compares; the state machine and the client protocol stay the same (§8's
// ZKCanopus setup; Schneider's state-machine approach separates ordering
// from applying in the same way). So the four node types — Canopus,
// standalone Raft, Zab and EPaxos — derive from this one base. A protocol
// decides *when* a write commits and *where* a read is served; this class
// decides what applying, answering and transferring state do, and
// implements each of those operations once.
//
// The crash-stop lifecycle lives here too: crash() loses the unsent
// replies and recover() restarts only a crashed node, and each protocol
// says in on_crash()/on_recover() what else a crash loses and how a
// restart re-enters it. A one-shot timer armed through after_once() keeps
// firing across a crash but skips its body while the node is down.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kv/store.h"
#include "kv/types.h"
#include "simnet/network.h"

namespace canopus::kv {

class ReplicaNode : public simnet::Process {
 public:
  // --- crash-stop lifecycle ----------------------------------------------
  /// Crash-stop: unsent replies are volatile and die with the process;
  /// on_crash() drops the protocol's own volatile state. A crashed node's
  /// handlers and timer bodies do nothing until recover().
  void crash() {
    crashed_ = true;
    drop_replies();
    on_crash();
  }
  /// Restart after a crash with the durable state intact; on_recover()
  /// re-enters the protocol. Does nothing on a live node.
  void recover() {
    if (!crashed_) return;
    crashed_ = false;
    on_recover();
  }
  bool crashed() const { return crashed_; }

  // --- observers --------------------------------------------------------
  std::uint64_t committed_writes() const { return digest_.count(); }
  /// Reads this node answered from its store.
  std::uint64_t served_reads() const { return served_reads_; }
  std::uint64_t snapshots_installed() const { return snapshots_installed_; }
  const Store& store() const { return store_; }
  const CommitDigest& digest() const { return digest_; }

  /// Fired once per committed batch, in local apply order, with the
  /// protocol's unit: the Canopus cycle, Raft log index or Zab zxid, or
  /// the running executed-request count on EPaxos.
  std::function<void(std::uint64_t, const std::vector<Request>&)> on_commit;
  /// Fired after a snapshot install replaced the store and the digest.
  std::function<void(const Snapshot&)> on_snapshot_install;

 protected:
  /// What a crash loses beyond the reply buffer.
  virtual void on_crash() = 0;
  /// How a restarted node re-enters the protocol.
  virtual void on_recover() = 0;

  /// Arms a one-shot timer unless `armed` says one is pending. When it
  /// fires it clears `armed` and runs `fn` unless the node has crashed, so
  /// a body due while the node is down is skipped and the next arm after
  /// recover() fires again.
  template <class F>
  void after_once(bool& armed, Time delay, F fn) {
    if (armed) return;
    armed = true;
    auto once = [this, &armed, fn] {
      armed = false;
      if (!crashed_) fn();
    };
    static_assert(simnet::InlineFn::fits_inline<decltype(once)>);
    after(delay, std::move(once));
  }

  /// Applies one committed write to the store and the commit digest.
  void apply_write(const Request& w) {
    store_.apply(w);
    digest_.append(w);
  }

  /// Buffers the acknowledgement of committed write `w`. Only the server
  /// that received a write from its client answers it; every other replica
  /// applies it silently.
  void ack_write(const Request& w) {
    if (w.origin == node_id())
      reply(w, Completion{w.id, true, 0, w.arrival, w.key});
  }

  /// Answers read `r` from the store, charging `cpu` to this node, and
  /// returns the value read.
  std::uint64_t serve_read(const Request& r, Time cpu) {
    ++served_reads_;
    net().busy(node_id(), cpu);
    const std::uint64_t value = store_.read(r.key);
    reply(r, Completion{r.id, false, value, r.arrival, r.key});
    return value;
  }

  /// The apply step of the log-ordered systems (Raft, Zab): charges
  /// `cpu_per_write` per request, applies and acknowledges every write of
  /// the batch, fires on_commit and sends the replies.
  void commit_batch(std::uint64_t unit, const std::vector<Request>& batch,
                    Time cpu_per_write) {
    net().busy(node_id(), static_cast<Time>(batch.size()) * cpu_per_write);
    for (const Request& w : batch) {
      apply_write(w);
      ack_write(w);
    }
    if (on_commit) on_commit(unit, batch);
    flush_replies();
  }

  /// Sends the buffered completions, one ReplyBatch per client, each
  /// copied into its payload's block so the buffer keeps its capacity. A
  /// batch refills the block last sent to its client once the client has
  /// dropped it (DESIGN.md §5.2).
  void flush_replies() {
    for (const auto& [client, done] : reply_buffer_) {
      if (client >= reply_memos_.size()) reply_memos_.resize(client + 1);
      simnet::Payload& memo = reply_memos_[client];
      if (!memo.rewrite_body<ReplyBatch>(done))
        memo = simnet::Payload::with_body<ReplyBatch>(done);
      send(client, memo);
    }
    drop_replies();
  }

  /// Empties the buffer. Its map nodes, with their completion vectors,
  /// are kept for the next clients to reply to.
  void drop_replies() {
    while (!reply_buffer_.empty()) {
      auto node = reply_buffer_.extract(reply_buffer_.begin());
      node.mapped().clear();
      spare_replies_.push_back(std::move(node));
    }
  }

  /// The store image and the commit-digest state, so that the receiver's
  /// digest chain continues this node's exactly.
  Snapshot capture_snapshot() const {
    Snapshot s;
    s.image = std::make_shared<const StoreImage>(store_.export_image());
    s.digest_hash = digest_.value();
    s.digest_count = digest_.count();
    return s;
  }

  /// Replaces the store and the commit digest with a donor's snapshot.
  void install_snapshot(const Snapshot& s) {
    if (s.image)
      store_.restore(*s.image);
    else
      store_ = Store();
    digest_.restore(s.digest_hash, s.digest_count);
    ++snapshots_installed_;
    if (on_snapshot_install) on_snapshot_install(s);
  }

 private:
  /// A request submitted locally (client kInvalidNode) has no one to
  /// answer.
  void reply(const Request& r, const Completion& c) {
    const NodeId client = r.id.client;
    if (client == kInvalidNode) return;
    auto it = reply_buffer_.find(client);
    if (it == reply_buffer_.end()) {
      if (spare_replies_.empty()) {
        it = reply_buffer_.try_emplace(client).first;
      } else {
        // Reinserting a node lays the map out exactly as a fresh insert
        // would, so flush_replies keeps its send order.
        auto node = std::move(spare_replies_.back());
        spare_replies_.pop_back();
        node.key() = client;
        it = reply_buffer_.insert(std::move(node)).position;
      }
    }
    it->second.push_back(c);
  }

  Store store_;
  CommitDigest digest_;
  std::uint64_t served_reads_ = 0;
  std::uint64_t snapshots_installed_ = 0;
  /// Completions accumulated during one handler, flushed as one ReplyBatch
  /// per client. The flush order, this map's iteration order, is
  /// observable: it orders the reply messages on the wire.
  std::unordered_map<NodeId, std::vector<Completion>> reply_buffer_;
  /// Emptied nodes of reply_buffer_, reused by reply().
  std::vector<std::unordered_map<NodeId, std::vector<Completion>>::node_type>
      spare_replies_;
  /// flush_replies' last payload per client, indexed by the client's node
  /// id. Kept apart from reply_buffer_, whose spare nodes pass from client
  /// to client.
  std::vector<simnet::Payload> reply_memos_;
  bool crashed_ = false;
};

}  // namespace canopus::kv
