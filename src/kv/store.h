// Replicated key-value state machine + commit audit trail.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "kv/types.h"

namespace canopus::kv {

/// Deterministic snapshot image of a Store: (key, value) pairs sorted by
/// key, so the image does not depend on the table's slot order (which
/// follows insertion and growth history) and is therefore identical on
/// every replica that holds the same state.
using StoreImage = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The state machine every replica applies committed writes to.
///
/// Every participant applies every committed write, so this sits on each
/// replica's hot path. The map is a flat open-addressing table (DESIGN.md
/// §8.3): one contiguous array of {key, value} slots, power-of-two
/// capacity, Fibonacci hash, linear probing, doubled once it would pass
/// 3/4 load. A new key costs no allocation except at a doubling, so
/// inserting n keys allocates O(log n) times. Keys are never erased.
/// kEmptyKey marks a free slot; a write to that key itself lives in a
/// side slot.
class Store {
 public:
  void apply(const Request& w) {
    if (w.is_write) put(w.key, w.value);
  }

  std::uint64_t read(std::uint64_t key) const {
    if (key == kEmptyKey) return empty_key_value_.value_or(0);
    if (slots_.empty()) return 0;
    return slots_[probe(key)].value;  // a free slot holds value 0
  }

  std::size_t size() const { return used_ + (empty_key_value_ ? 1 : 0); }

  StoreImage export_image() const {
    StoreImage img;
    img.reserve(size());
    if (empty_key_value_) img.emplace_back(kEmptyKey, *empty_key_value_);
    for (const Slot& s : slots_)
      if (s.key != kEmptyKey) img.emplace_back(s.key, s.value);
    std::sort(img.begin(), img.end());
    return img;
  }

  /// Replaces the contents with `img`, sizing the table once for it.
  void restore(const StoreImage& img) {
    *this = Store();
    if (img.empty()) return;
    std::size_t cap = kMinCapacity;
    while (!within_load(img.size(), cap)) cap *= 2;
    rehash(cap);
    for (const auto& [k, v] : img) put(k, v);
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t value;
  };

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  static bool within_load(std::size_t n, std::size_t cap) {
    return 4 * n <= 3 * cap;
  }

  /// Index of `key`'s slot, or of the free slot where it would go. The load
  /// bound keeps a free slot in the table, so the probe terminates.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].key != key && slots_[i].key != kEmptyKey)
      i = (i + 1) & mask;
    return i;
  }

  void put(std::uint64_t key, std::uint64_t value) {
    if (key == kEmptyKey) {
      empty_key_value_ = value;
      return;
    }
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t i = probe(key);
    if (slots_[i].key == key) {
      slots_[i].value = value;
      return;
    }
    if (!within_load(used_ + 1, slots_.size())) {
      rehash(2 * slots_.size());
      i = probe(key);
    }
    slots_[i] = {key, value};
    ++used_;
  }

  void rehash(std::size_t cap) {
    std::vector<Slot> old(cap, Slot{kEmptyKey, 0});
    old.swap(slots_);
    shift_ = std::countl_zero(static_cast<std::uint64_t>(cap)) + 1;
    for (const Slot& s : old)
      if (s.key != kEmptyKey) slots_[probe(s.key)] = s;
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;  ///< occupied slots (the side slot not counted)
  int shift_ = 64;        ///< 64 - log2(capacity)
  std::optional<std::uint64_t> empty_key_value_;  ///< the side slot
};

/// Rolling digest of the committed write sequence. Two replicas that applied
/// the same writes in the same order have equal digests — integration tests
/// use this to assert the paper's Agreement property cheaply.
class CommitDigest {
 public:
  void append(const Request& w) {
    // FNV-1a over the identifying fields.
    auto mix = [this](std::uint64_t x) {
      hash_ ^= x;
      hash_ *= 0x100000001b3ULL;
    };
    mix(w.id.client);
    mix(w.id.seq);
    mix(w.key);
    mix(w.value);
    ++count_;
  }

  std::uint64_t value() const { return hash_; }
  std::uint64_t count() const { return count_; }

  /// Adopts another replica's digest state (snapshot install): subsequent
  /// appends continue the donor's chain exactly.
  void restore(std::uint64_t hash, std::uint64_t count) {
    hash_ = hash;
    count_ = count;
  }

  friend bool operator==(const CommitDigest&, const CommitDigest&) = default;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t count_ = 0;
};

/// Order-insensitive digest of a committed write *set*. EPaxos executes
/// non-interfering commands in whatever order their commits arrive locally,
/// so two replicas agree on the set of committed writes but not on a total
/// order — this is the agreement property its fault scenarios can check.
/// (Ordered systems — Canopus, Raft, Zab — use CommitDigest instead, which
/// also pins the order.)
class SetDigest {
 public:
  void append(const Request& w) {
    // Commutative accumulation (sum mod 2^64) of a per-record mix.
    std::uint64_t x = (std::uint64_t{w.id.client} << 32) ^ w.id.seq;
    x = (x ^ w.key * 0x9e3779b97f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL;
    x ^= (w.value + 0x94d049bb133111ebULL) * 0x2545f4914f6cdd1dULL;
    x ^= x >> 33;
    sum_ += x;
    ++count_;
  }

  std::uint64_t value() const { return sum_; }
  std::uint64_t count() const { return count_; }

  /// Adopts another replica's digest state (snapshot install).
  void restore(std::uint64_t sum, std::uint64_t count) {
    sum_ = sum;
    count_ = count;
  }

  friend bool operator==(const SetDigest&, const SetDigest&) = default;

 private:
  std::uint64_t sum_ = 0;
  std::uint64_t count_ = 0;
};

/// A complete state-machine snapshot: the KV image plus the digest states
/// needed so the receiver's audit chain continues the donor's exactly. The
/// image rides a shared_ptr — fanning a snapshot out to N receivers shares
/// one allocation, and copying the frame is O(1).
struct Snapshot {
  std::shared_ptr<const StoreImage> image;
  std::uint64_t digest_hash = 0;   ///< CommitDigest state (ordered systems)
  std::uint64_t digest_count = 0;
  std::uint64_t set_sum = 0;       ///< SetDigest state (EPaxos)
  std::uint64_t set_count = 0;

  std::size_t image_size() const { return image ? image->size() : 0; }
  /// Modeled wire size: 16 bytes per pair plus frame metadata.
  std::size_t wire_bytes() const { return 48 + 16 * image_size(); }
};

}  // namespace canopus::kv
