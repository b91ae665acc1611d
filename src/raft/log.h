// Raft replicated log types.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "simnet/payload.h"

namespace canopus::raft {

using Term = std::uint64_t;
using LogIndex = std::uint64_t;  // 1-based; 0 means "before the log"
using GroupId = std::uint64_t;

/// A single replicated log entry. The payload rides the typed message bus
/// (simnet::Payload) so that any layer (reliable broadcast, a KV service, a
/// test) can replicate its own registered record type; replicating an entry
/// to N followers shares one payload allocation. `bytes` is the payload's
/// wire size for the network model.
struct LogEntry {
  Term term = 0;
  simnet::Payload payload;
  std::size_t bytes = 0;
  /// Leader-election no-op (the standard fix that lets a new leader commit
  /// entries from prior terms, Raft §5.4.2). Never surfaced via on_commit.
  bool is_noop = false;
  /// For no-ops: the leader that appended it. Layers above use the commit
  /// of a no-op as a *consistent* leadership-change point: it is totally
  /// ordered (in the log) with every entry the previous leader managed to
  /// commit, on every member.
  NodeId leader = kInvalidNode;
};

/// The log itself: entries plus helpers for the AppendEntries consistency
/// check. Compaction (Raft §7 / Ongaro's InstallSnapshot design) discards a
/// committed-and-applied prefix, leaving a *base*: `base_index_` is the
/// index of the last discarded entry and `base_term_` its term, so the
/// consistency check still works at the compaction boundary. A fresh log
/// has base 0 — index 1 is then entries_[0], as before.
class Log {
 public:
  LogIndex base_index() const { return base_index_; }

  LogIndex last_index() const { return base_index_ + entries_.size(); }
  Term last_term() const {
    return entries_.empty() ? base_term_ : entries_.back().term;
  }
  Term term_at(LogIndex i) const {
    if (i == base_index_) return base_term_;
    if (i <= base_index_ || i > last_index()) return 0;
    return entries_[i - base_index_ - 1].term;
  }
  /// Precondition: base_index() < i <= last_index().
  const LogEntry& at(LogIndex i) const {
    return entries_[i - base_index_ - 1];
  }

  void append(LogEntry e) { entries_.push_back(std::move(e)); }

  /// Truncates the log so that last_index() == i. Never truncates into the
  /// compacted prefix (i >= base_index() required).
  void truncate_after(LogIndex i) { entries_.resize(i - base_index_); }

  /// Discards entries up to and including `i` (which must be applied).
  /// No-op if `i` is at or below the current base.
  void compact_to(LogIndex i) {
    if (i <= base_index_ || i > last_index()) return;
    const Term t = term_at(i);
    entries_.erase(entries_.begin(),
                   entries_.begin() +
                       static_cast<std::ptrdiff_t>(i - base_index_));
    base_index_ = i;
    base_term_ = t;
  }

  /// Replaces the whole log with a snapshot boundary: everything up to
  /// `index` (term `term`) is covered by installed state; the log is empty
  /// beyond it.
  void reset_to_snapshot(LogIndex index, Term term) {
    entries_.clear();
    base_index_ = index;
    base_term_ = term;
  }

  bool empty() const { return entries_.empty(); }
  /// Number of *retained* entries (the memory footprint compaction bounds).
  std::size_t size() const { return entries_.size(); }

 private:
  LogIndex base_index_ = 0;
  Term base_term_ = 0;
  std::vector<LogEntry> entries_;
};

}  // namespace canopus::raft
