// Invariant audit plane: a per-client / per-node operation-history recorder
// feeding a linearizability-flavoured checker that runs CONTINUOUSLY while
// faults are being injected — not just a digest comparison after the run.
//
// The auditor records two histories as the simulation executes:
//  * server-side: every committed write batch per node (via
//    ConsensusService::on_commit), kept as an append-only log plus a
//    cumulative hash chain, so "do two nodes agree on a commit prefix?" is
//    an O(1) compare at any point in time;
//  * client-side: every completion each client machine observes (via
//    ClientMachine::on_reply), split into acknowledged writes and read
//    results tagged with the serving node.
//
// Invariants checked (the safety properties a storm must never violate):
//  1. Commit-order prefix agreement (ordered systems — Canopus, Raft, Zab):
//     at every probe tick and at the end of the run, the committed write
//     sequences of any two comparable live nodes must be prefixes of one
//     another. A node that lags (crash recovery, catch-up in progress) is
//     fine; a node that *reorders or forks* is a violation. EPaxos commits
//     a partial order, so prefix checks are disabled for it (ordered =
//     false) and the remaining invariants carry the audit.
//  2. No lost acknowledged writes: every write acked to a client must be in
//     the committed log of at least one comparable node at the end of the
//     run. An ack whose write exists on no surviving comparable replica
//     means durability was lied about.
//  3. Monotonic reads per client session: reads flow to a client from a
//     specific serving node; for a fixed (client, server, key) the returned
//     values must move forward through THAT server's committed write order
//     for the key (simnet delivery is FIFO per path, stores only apply
//     committed writes, so going backwards means the server served
//     uncommitted or rolled-back state). A read of a value the server never
//     committed ("phantom read") is likewise a violation.
//
// The auditor has two feeding modes: attach_service()/attach() wire a live
// ConsensusService (+ client set; run_trial in workload/trial.h), while the
// note_*/check_*/finalize entry points take explicit histories and
// comparability masks so checker self-tests can prove that INJECTED
// violations — a lost write, an order flip, a stale read — are detected
// (tests/workload/audit_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "workload/client.h"
#include "workload/service.h"

namespace canopus::workload {

struct AuditViolation {
  enum class Kind {
    kPrefixDivergence,  ///< two comparable nodes committed forked orders
    kLostAckedWrite,    ///< acked write on no comparable node at run end
    kStaleRead,         ///< session read moved backwards in commit order
    kPhantomRead,       ///< read returned a value its server never committed
  };
  Kind kind;
  Time at = 0;  ///< simulation time the check detected it
  std::string detail;
};

inline const char* audit_violation_name(AuditViolation::Kind k) {
  switch (k) {
    case AuditViolation::Kind::kPrefixDivergence: return "prefix_divergence";
    case AuditViolation::Kind::kLostAckedWrite: return "lost_acked_write";
    case AuditViolation::Kind::kStaleRead: return "stale_read";
    case AuditViolation::Kind::kPhantomRead: return "phantom_read";
  }
  return "?";
}

struct AuditConfig {
  /// Prefix-agreement checks apply (every system except EPaxos, whose
  /// commit order is legitimately partial).
  bool ordered = true;
  /// Cap on violation *details* kept (the count keeps the true total).
  std::size_t max_recorded = 64;
};

class HistoryAuditor {
 public:
  /// Period of the continuous prefix probe while attached to a live run.
  static constexpr Time kCheckInterval = 50 * kMillisecond;

  HistoryAuditor(AuditConfig cfg, std::size_t num_nodes)
      : cfg_(cfg), nodes_(num_nodes) {}

  // --- history feed -----------------------------------------------------

  /// Appends a committed batch to node i's history (reads are skipped:
  /// histories track the write order). Batches must arrive in the node's
  /// local apply order — exactly what ConsensusService::on_commit fires.
  void note_commit(std::size_t i, const std::vector<kv::Request>& batch) {
    NodeHistory& h = nodes_[i];
    for (const kv::Request& r : batch) {
      if (!r.is_write) continue;
      h.log.push_back({wid(r.id), r.key, r.value});
      // The chain is the node's rolling kv::CommitDigest sampled after
      // every write: same fingerprint semantics as the end-of-run digest
      // audits, one snapshot per prefix length so prefix compare is O(1).
      h.digest.append(r);
      h.chain.push_back(h.digest.value());
    }
  }

  /// Node i installed a state snapshot covering `count` committed writes
  /// with cumulative commit fingerprint `fingerprint` (plus the KV image).
  /// The hole between the node's last recorded write and the snapshot point
  /// was adopted wholesale, never observed write by write, so:
  ///  * the hash chain is padded with *unknown* prefix digests up to
  ///    count-1 and pinned to `fingerprint` at count — prefix checks then
  ///    compare at the deepest mutually-KNOWN prefix instead of reading the
  ///    padding as a fork;
  ///  * the rolling digest restarts from the donor state, so post-install
  ///    commits chain exactly like the donor's;
  ///  * the image's (key, value) pairs join the node's committed-value set
  ///    as synthetic entries (id 0) so the phantom/stale read checks know
  ///    the node legitimately serves them. Synthetic entries are counted
  ///    apart and excluded from committed_writes().
  /// Installs never rewind: a snapshot at or below the recorded history is
  /// ignored (protocol-side guards only install when strictly behind).
  void note_snapshot_install(std::size_t i, std::uint64_t count,
                             std::uint64_t fingerprint,
                             const kv::StoreImage* image) {
    NodeHistory& h = nodes_[i];
    if (count <= h.chain.size()) return;
    h.known.resize(h.chain.size(), std::uint8_t{1});
    while (h.chain.size() + 1 < count) {
      h.chain.push_back(0);
      h.known.push_back(0);
    }
    h.chain.push_back(fingerprint);
    h.known.push_back(1);
    h.digest.restore(fingerprint, count);
    if (image) {
      for (const auto& [key, value] : *image) {
        h.log.push_back({0, key, value});
        ++h.synthetic;
      }
    }
  }

  /// Records a completion observed by client `client` from server index
  /// `server` at time `now`.
  ///
  /// Thread safety under the sharded kernel: replies fire on the observing
  /// client's shard, so different clients may call this concurrently — the
  /// mutex guards the shared append-only vectors. Every check that consumes
  /// them is order-independent across sessions (acked_ feeds a set-membership
  /// test; the read checks are per (client, server, key) session, and one
  /// client's replies always arrive on one shard in time order), so sharded
  /// and serial runs produce identical verdicts. note_commit needs no lock:
  /// nodes_[i] is appended only by node i's owning shard, and the prefix
  /// probes run at control barriers with every worker parked.
  void note_reply(std::size_t client, std::size_t server,
                  const kv::Completion& c, Time now) {
    std::lock_guard<std::mutex> lock(reply_mu_);
    if (c.is_write) {
      acked_.push_back({wid(c.id), now});
    } else {
      reads_.push_back({client, server, c.key, c.value, now});
    }
  }

  // --- live wiring ------------------------------------------------------

  /// Wires the auditor's server side into a live run: captures every
  /// commit via service.on_commit and — for ordered systems — schedules
  /// the continuous prefix probe every kCheckInterval from `first_probe`
  /// until `until`. The caller feeds client completions itself via
  /// note_reply; run_trial (workload/trial.h) attaches one auditor per
  /// consensus group this way and demultiplexes client completions onto
  /// the group auditors.
  void attach_service(ConsensusService& service, simnet::Simulator& sim,
                      Time first_probe, Time until) {
    service_ = &service;
    sim_ = &sim;
    probe_until_ = until;
    for (std::size_t i = 0; i < service.num_servers(); ++i)
      index_of_[service.server_node(i)] = i;
    service.on_commit = [this](std::size_t i, std::uint64_t,
                               const std::vector<kv::Request>& batch) {
      note_commit(i, batch);
    };
    service.on_snapshot_install = [this](std::size_t i,
                                         const kv::Snapshot& s) {
      note_snapshot_install(i, s.digest_count, s.digest_hash,
                            s.image.get());
    };
    if (cfg_.ordered)
      sim.at(first_probe, [this] { probe(); });
  }

  /// attach_service plus the classic client wiring: every
  /// OpenLoopClient::on_reply feeds note_reply (one group, one auditor).
  void attach(ConsensusService& service,
              std::vector<std::unique_ptr<OpenLoopClient>>& clients,
              simnet::Simulator& sim, Time first_probe, Time until) {
    attach_service(service, sim, first_probe, until);
    for (std::size_t ci = 0; ci < clients.size(); ++ci)
      clients[ci]->on_reply = [this, ci](NodeId server,
                                         const kv::Completion& c) {
        note_reply(ci, index_of_.at(server), c, sim_->now());
      };
  }

  // --- checks -----------------------------------------------------------

  /// Prefix-agreement check over the nodes selected by `mask` (the
  /// comparable live set). All pairs are compared — the checker cannot
  /// know WHICH node of a mismatching pair forked, so it reports the pair
  /// symmetrically and keeps auditing every other pair. A diverged pair is
  /// reported once, not once per probe. O(pairs) with an O(1) chain
  /// compare per pair; cluster sizes make this trivial.
  void check_prefixes(Time now, const std::vector<bool>& mask) {
    if (!cfg_.ordered) return;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!mask[i]) continue;
      for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
        if (!mask[j]) continue;
        if (diverged_pairs_.contains(i * nodes_.size() + j)) continue;
        const std::size_t n =
            std::min(nodes_[i].chain.size(), nodes_[j].chain.size());
        if (n == 0) continue;
        // Compare at the deepest prefix BOTH nodes know the digest of
        // (snapshot installs leave unknown padding, see
        // note_snapshot_install). Walk-back is bounded by the padded span.
        std::size_t k = n;
        while (k > 0 &&
               !(known_at(nodes_[i], k - 1) && known_at(nodes_[j], k - 1)))
          --k;
        if (k == 0) continue;
        if (nodes_[i].chain[k - 1] != nodes_[j].chain[k - 1]) {
          diverged_pairs_.insert(i * nodes_.size() + j);
          record(AuditViolation::Kind::kPrefixDivergence, now,
                 "nodes " + std::to_string(i) + " and " + std::to_string(j) +
                     " forked within their first " + std::to_string(k) +
                     " committed writes");
        }
      }
    }
  }

  /// End-of-run checks: final prefix agreement, lost acknowledged writes,
  /// and per-session monotonic reads. `mask` selects the comparable nodes
  /// whose histories count as surviving committed state.
  void finalize(Time now, const std::vector<bool>& mask) {
    check_prefixes(now, mask);

    // -- no lost acknowledged writes ------------------------------------
    std::unordered_set<std::uint64_t> durable;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!mask[i]) continue;
      for (const Committed& w : nodes_[i].log) durable.insert(w.id);
    }
    bool any_comparable = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) any_comparable |= mask[i];
    if (any_comparable) {
      for (const Acked& a : acked_) {
        if (!durable.contains(a.id)) {
          record(AuditViolation::Kind::kLostAckedWrite, now,
                 "write " + std::to_string(a.id) + " acked at t=" +
                     std::to_string(a.at) +
                     "ns is on no comparable node at run end");
        }
      }
    }

    // -- monotonic reads per (client, server, key) session ---------------
    // Rank each read's value in the SERVING node's own committed order for
    // that key (self-consistency — works for ordered and EPaxos alike; the
    // cross-node story is the prefix check above). Value 0 with no
    // committed write ranks as "initial state" (-1).
    //
    // A value committed to the same key more than once is ambiguous from
    // the client's side (replies carry values, not write ids), so each
    // (key, value) keeps its [first, last] rank range and the checks are
    // conservative: a read is stale only if even its LATEST occurrence
    // predates the session floor, and the floor only advances to the
    // EARLIEST occurrence — no false positives, full strength for unique
    // values (the in-repo workloads draw 64-bit random values, so ranges
    // are almost always a single rank).
    struct RankRange {
      long first, last;
    };
    std::vector<std::unordered_map<
        std::uint64_t, std::unordered_map<std::uint64_t, RankRange>>>
        rank(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      long r = 0;
      for (const Committed& w : nodes_[i].log) {
        auto [it, fresh] = rank[i][w.key].try_emplace(w.value, RankRange{r, r});
        if (!fresh) it->second.last = r;
        ++r;
      }
    }
    // Floors keyed exactly by (client, server) then key — collisions would
    // merge unrelated sessions whose ranks live in different spaces.
    std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t, long>>
        session_floor;
    for (const Read& rd : reads_) {
      const auto key_it = rank[rd.server].find(rd.key);
      RankRange r{-1, -1};
      if (key_it != rank[rd.server].end()) {
        const auto val_it = key_it->second.find(rd.value);
        if (val_it != key_it->second.end()) {
          r = val_it->second;
        } else if (rd.value != 0) {
          record(AuditViolation::Kind::kPhantomRead, now,
                 session_str(rd) + " returned value node " +
                     std::to_string(rd.server) + " never committed");
          continue;
        }
      } else if (rd.value != 0) {
        record(AuditViolation::Kind::kPhantomRead, now,
               session_str(rd) + " returned a value for a key node " +
                   std::to_string(rd.server) + " never committed to");
        continue;
      }
      const std::uint64_t session = (std::uint64_t{static_cast<std::uint32_t>(
                                         rd.client)}
                                     << 32) |
                                    static_cast<std::uint32_t>(rd.server);
      auto [it, fresh] = session_floor[session].try_emplace(rd.key, r.first);
      if (!fresh) {
        if (r.last < it->second) {
          record(AuditViolation::Kind::kStaleRead, now,
                 session_str(rd) + " went backwards: rank " +
                     std::to_string(r.last) + " after rank " +
                     std::to_string(it->second));
        } else if (r.first > it->second) {
          it->second = r.first;
        }
      }
    }
  }

  /// attach()-mode finalize: derives the comparability mask from the
  /// service (up + repairable).
  void finalize(Time now) { finalize(now, comparable_mask()); }

  // --- results ----------------------------------------------------------

  std::uint64_t violation_count() const { return total_; }
  const std::vector<AuditViolation>& violations() const { return recorded_; }

  std::uint64_t acked_writes() const { return acked_.size(); }
  std::uint64_t observed_reads() const { return reads_.size(); }
  std::uint64_t committed_writes(std::size_t i) const {
    return nodes_[i].log.size() - nodes_[i].synthetic;
  }

 private:
  struct Committed {
    std::uint64_t id, key, value;
  };
  struct NodeHistory {
    std::vector<Committed> log;
    kv::CommitDigest digest;  ///< rolling digest (same as the node audits)
    std::vector<std::uint64_t> chain;  ///< digest snapshot per prefix length
    /// Parallel to `chain`, lazily materialized on the first snapshot
    /// install: 0 marks padded positions whose digest was never observed.
    /// Empty, or any index beyond its size, means "known".
    std::vector<std::uint8_t> known;
    /// Synthetic log entries appended from snapshot images (excluded from
    /// committed_writes()).
    std::uint64_t synthetic = 0;
  };

  static bool known_at(const NodeHistory& h, std::size_t idx) {
    return idx >= h.known.size() || h.known[idx] != 0;
  }
  struct Acked {
    std::uint64_t id;
    Time at;
  };
  struct Read {
    std::size_t client, server;
    std::uint64_t key, value;
    Time at;
  };

  static std::uint64_t wid(const RequestId& id) {
    return (std::uint64_t{id.client} << 40) ^ id.seq;
  }
  static std::string session_str(const Read& r) {
    return "read session (client " + std::to_string(r.client) + ", server " +
           std::to_string(r.server) + ", key " + std::to_string(r.key) + ")";
  }

  void record(AuditViolation::Kind kind, Time at, std::string detail) {
    ++total_;
    if (recorded_.size() < cfg_.max_recorded)
      recorded_.push_back({kind, at, std::move(detail)});
  }

  std::vector<bool> comparable_mask() const {
    std::vector<bool> mask(nodes_.size(), false);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      mask[i] = service_->comparable(i);
    return mask;
  }

  void probe() {
    check_prefixes(sim_->now(), comparable_mask());
    const Time next = sim_->now() + kCheckInterval;
    if (next <= probe_until_)
      sim_->at(next, [this] { probe(); });
  }

  AuditConfig cfg_;
  std::vector<NodeHistory> nodes_;
  std::unordered_set<std::size_t> diverged_pairs_;  ///< reported once, as
                                                    ///< i * num_nodes + j
  std::vector<Acked> acked_;
  std::vector<Read> reads_;
  std::mutex reply_mu_;
  std::vector<AuditViolation> recorded_;
  std::uint64_t total_ = 0;

  // attach()-mode wiring.
  const ConsensusService* service_ = nullptr;
  simnet::Simulator* sim_ = nullptr;
  Time probe_until_ = 0;
  std::unordered_map<NodeId, std::size_t> index_of_;
};

}  // namespace canopus::workload
