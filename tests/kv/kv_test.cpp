// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be the binary's only definition of the global allocation functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "alloc_count.h"
#include "common/rng.h"
#include "kv/store.h"
#include "kv/types.h"

namespace canopus::kv {
namespace {

constexpr std::uint64_t kMaxKey = std::numeric_limits<std::uint64_t>::max();

Request write(std::uint64_t key, std::uint64_t value) {
  Request w;
  w.is_write = true;
  w.key = key;
  w.value = value;
  return w;
}

TEST(Store, ReadOfMissingKeyIsZero) {
  Store s;
  EXPECT_EQ(s.read(42), 0u);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Store, ApplyWriteThenRead) {
  Store s;
  Request w;
  w.is_write = true;
  w.key = 7;
  w.value = 77;
  s.apply(w);
  EXPECT_EQ(s.read(7), 77u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, ApplyIgnoresReads) {
  Store s;
  Request r;
  r.is_write = false;
  r.key = 7;
  r.value = 99;
  s.apply(r);
  EXPECT_EQ(s.read(7), 0u);
}

TEST(Store, OverwriteKeepsLatest) {
  Store s;
  Request w;
  w.is_write = true;
  w.key = 1;
  for (std::uint64_t v = 1; v <= 5; ++v) {
    w.value = v;
    s.apply(w);
  }
  EXPECT_EQ(s.read(1), 5u);
  EXPECT_EQ(s.size(), 1u);
}

TEST(Store, MatchesOrderedMapAcrossGrowth) {
  // About 2800 distinct keys take the table from 16 slots to 4096: eight
  // doublings. Keys mix the two extremes, a dense range (frequent
  // overwrites) and arbitrary 64-bit values; some writes store value 0.
  Store s;
  std::map<std::uint64_t, std::uint64_t> ref;
  const auto expect_read = [&](std::uint64_t key) {
    const auto it = ref.find(key);
    EXPECT_EQ(s.read(key), it == ref.end() ? 0 : it->second) << key;
  };
  expect_read(0);
  expect_read(kMaxKey);
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    std::uint64_t key = 0;
    switch (rng.below(4)) {
      case 0: key = rng.below(2) == 0 ? 0 : kMaxKey; break;
      case 1: key = rng.below(2000); break;
      default: key = rng(); break;
    }
    const std::uint64_t value = rng.below(8) == 0 ? 0 : rng();
    s.apply(write(key, value));
    ref[key] = value;
    expect_read(key);
    expect_read(rng.below(4000));  // present or absent
    expect_read(rng());            // almost surely absent
  }
  EXPECT_EQ(s.size(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_EQ(s.read(k), v) << k;
  EXPECT_EQ(s.export_image(), StoreImage(ref.begin(), ref.end()));
}

TEST(Store, ExportImageIsSortedAndIndependentOfInsertionOrder) {
  Rng rng(99);
  std::vector<std::uint64_t> keys = {0, kMaxKey, 1, kMaxKey - 1};
  for (int i = 0; i < 1500; ++i) keys.push_back(rng());
  for (std::uint64_t k = 0; k < 500; ++k) keys.push_back(k * 64);

  Store forward, shuffled;
  for (std::uint64_t k : keys) forward.apply(write(k, k ^ 0x5a5a));
  std::shuffle(keys.begin(), keys.end(), rng);
  for (std::uint64_t k : keys) shuffled.apply(write(k, k ^ 0x5a5a));
  Store restored;  // a table sized once instead of grown
  restored.restore(forward.export_image());

  const StoreImage img = forward.export_image();
  ASSERT_EQ(img.size(), forward.size());
  for (std::size_t i = 1; i < img.size(); ++i)
    EXPECT_LT(img[i - 1].first, img[i].first) << i;
  EXPECT_EQ(shuffled.export_image(), img);
  EXPECT_EQ(restored.export_image(), img);
}

TEST(Store, RestoreRoundTripsAndReplacesContents) {
  Store src;
  for (std::uint64_t k = 0; k < 1000; ++k) src.apply(write(k * 3, k + 1));
  src.apply(write(kMaxKey, 7));
  const StoreImage img = src.export_image();

  Store dst;
  for (std::uint64_t k = 0; k < 3000; ++k) dst.apply(write(k * 3 + 1, 5));
  dst.apply(write(kMaxKey, 9));
  dst.restore(img);
  EXPECT_EQ(dst.export_image(), img);
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_EQ(dst.read(kMaxKey), 7u);
  EXPECT_EQ(dst.read(1), 0u);  // a key only the old contents held
  EXPECT_EQ(dst.read(3 * 999), 1000u);

  // The restored table keeps growing past the size it was restored at.
  for (std::uint64_t k = 0; k < 2000; ++k) dst.apply(write(k * 3 + 2, k));
  EXPECT_EQ(dst.size(), src.size() + 2000);
  EXPECT_EQ(dst.read(3 * 1999 + 2), 1999u);

  dst.restore(StoreImage{});
  EXPECT_EQ(dst.size(), 0u);
  EXPECT_EQ(dst.read(0), 0u);
  EXPECT_EQ(dst.read(kMaxKey), 0u);
  EXPECT_TRUE(dst.export_image().empty());
}

TEST(Store, AllocatesOnlyWhenTheTableDoubles) {
  using canopus::bench::heap_allocations;
  const std::uint64_t t0 = heap_allocations();
  Store s;
  EXPECT_EQ(heap_allocations() - t0, 0u) << "default construction";

  constexpr std::uint64_t kKeys = 65'536;
  const std::uint64_t t1 = heap_allocations();
  for (std::uint64_t k = 0; k < kKeys; ++k) s.apply(write(k, k));
  const std::uint64_t inserts = heap_allocations() - t1;
  EXPECT_LE(inserts, 20u) << "inserting " << kKeys << " distinct keys";
  ASSERT_EQ(s.size(), kKeys);

  const std::uint64_t t2 = heap_allocations();
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) s.apply(write(k, k + 1));
  for (std::uint64_t k = 0; k < 2 * kKeys; ++k) sum += s.read(k);
  EXPECT_EQ(heap_allocations() - t2, 0u) << "overwrites and reads";
  EXPECT_EQ(sum, kKeys * (kKeys + 1) / 2);
}

TEST(Store, TablesOf128KiBOrMoreAreMappedOutsideTheHeap) {
  using canopus::bench::heap_allocations;
  Store s;
  const std::uint64_t t0 = heap_allocations();
  for (std::uint64_t k = 0; k < 3'072; ++k) s.apply(write(k, k));
  EXPECT_EQ(heap_allocations() - t0, 9u)
      << "tables of 16 to 4096 slots (64 KiB) come from operator new";

  const std::uint64_t t1 = heap_allocations();
  for (std::uint64_t k = 3'072; k < 65'536; ++k) s.apply(write(k, k));
  EXPECT_EQ(heap_allocations() - t1, 0u)
      << "tables of 8192 to 131072 slots are mappings of their own";
  ASSERT_EQ(s.size(), 65'536u);
  for (std::uint64_t k = 0; k < 65'536; k += 4'099) EXPECT_EQ(s.read(k), k);
}

TEST(CommitDigest, EqualForEqualSequences) {
  CommitDigest a, b;
  for (std::uint64_t i = 0; i < 10; ++i) {
    Request w;
    w.id = {static_cast<ClientId>(i), i};
    w.key = i;
    w.value = i * 3;
    a.append(w);
    b.append(w);
  }
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.count(), 10u);
}

TEST(CommitDigest, OrderSensitive) {
  Request x, y;
  x.key = 1;
  x.value = 10;
  y.key = 2;
  y.value = 20;
  CommitDigest a, b;
  a.append(x);
  a.append(y);
  b.append(y);
  b.append(x);
  EXPECT_FALSE(a == b);
}

TEST(CommitDigest, ContentSensitive) {
  Request x;
  x.key = 1;
  x.value = 10;
  CommitDigest a, b;
  a.append(x);
  x.value = 11;
  b.append(x);
  EXPECT_FALSE(a == b);
}

TEST(WireSizes, BatchesScaleWithContent) {
  const std::vector<Request> reqs(10);
  const simnet::Payload empty = simnet::Payload::with_body<ClientBatch>({});
  const simnet::Payload ten = simnet::Payload::with_body<ClientBatch>(reqs);
  EXPECT_EQ(ten.as<ClientBatch>()->wire_bytes(),
            empty.as<ClientBatch>()->wire_bytes() + 10 * kRequestWire);
  EXPECT_EQ(ten.wire_bytes(), ten.as<ClientBatch>()->wire_bytes());

  const std::vector<Completion> done(4);
  const simnet::Payload rempty = simnet::Payload::with_body<ReplyBatch>({});
  const simnet::Payload four = simnet::Payload::with_body<ReplyBatch>(done);
  EXPECT_EQ(four.as<ReplyBatch>()->wire_bytes(),
            rempty.as<ReplyBatch>()->wire_bytes() + 4 * 24);
  EXPECT_EQ(four.wire_bytes(), four.as<ReplyBatch>()->wire_bytes());
}

TEST(RequestId, DefaultIsInvalidClient) {
  RequestId id;
  EXPECT_EQ(id.client, kInvalidNode);
  RequestId a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(b, c);
}

}  // namespace
}  // namespace canopus::kv
