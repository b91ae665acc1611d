// proto::WriteSet and proto::merge_writes (canopus/messages.h): a merged
// state shares its inputs' write sets by handle, and flattening it yields
// exactly the concatenation a flat merge would have built (§4.2). Each set
// is one heap block, and its holder count survives a drop on another
// thread than the build.
//
// This TU carries the counting allocation hook (bench/alloc_count.h), which
// must be the binary's only definition of the global allocation functions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "canopus/messages.h"

namespace canopus::proto {
namespace {

/// `n` writes with keys first, first+1, ...
std::vector<kv::Request> requests(std::uint64_t first, std::size_t n) {
  std::vector<kv::Request> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].is_write = true;
    batch[i].key = first + i;
  }
  return batch;
}

/// A leaf set of `n` writes with keys first, first+1, ...
WriteSet::Ptr leaf(std::uint64_t first, std::size_t n) {
  return WriteSet::leaf(requests(first, n));
}

Proposal carrying(WriteSet::Ptr writes) {
  Proposal p;
  p.writes = std::move(writes);
  return p;
}

std::vector<std::uint64_t> keys(const WriteSet& ws) {
  std::vector<kv::Request> flat;
  ws.append_to(flat);
  std::vector<std::uint64_t> out;
  for (const kv::Request& r : flat) out.push_back(r.key);
  return out;
}

TEST(WriteSet, FlattensThreeNestingLevelsInMergeOrder) {
  const Proposal a = carrying(leaf(0, 2));
  const Proposal b = carrying(leaf(10, 1));
  const Proposal c = carrying(leaf(20, 3));
  const Proposal d = carrying(leaf(30, 2));
  const Proposal ab = carrying(merge_writes(std::vector{&a, &b}));
  const Proposal cd = carrying(merge_writes(std::vector{&c, &d}));
  const Proposal e = carrying(leaf(40, 1));
  const Proposal root = carrying(merge_writes(std::vector{&cd, &e, &ab}));

  ASSERT_NE(root.writes, nullptr);
  EXPECT_EQ(root.writes->size(), 9u);
  EXPECT_EQ(root.write_count(), 9u);
  EXPECT_EQ(keys(*root.writes),
            (std::vector<std::uint64_t>{20, 21, 22, 30, 31, 40, 0, 1, 10}));
  // Appending adds to what the buffer already holds.
  std::vector<kv::Request> out(1);
  root.writes->append_to(out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[1].key, 20u);
}

TEST(WriteSet, MergedSetSharesItsInputsByPointer) {
  const Proposal a = carrying(leaf(0, 1000));
  const Proposal b = carrying(leaf(1000, 1000));
  const WriteSet::Ptr merged = merge_writes(std::vector{&b, &a});
  ASSERT_NE(merged, nullptr);
  ASSERT_EQ(merged->parts().size(), 2u);
  EXPECT_EQ(merged->parts()[0].get(), b.writes.get());
  EXPECT_EQ(merged->parts()[1].get(), a.writes.get());
  EXPECT_EQ(merged->size(), 2000u);
  EXPECT_TRUE(a.writes->parts().empty());  // a leaf holds its requests
}

TEST(WriteSet, MergeOfEmptyInputsHasNoSet) {
  const Proposal none;
  const Proposal empty = carrying(leaf(0, 0));
  EXPECT_EQ(merge_writes(std::vector{&none, &empty, &none}), nullptr);
  EXPECT_EQ(merge_writes(std::vector<const Proposal*>{}), nullptr);
}

TEST(WriteSet, MergeWithOneNonEmptyInputReusesItsSet) {
  const Proposal none;
  const Proposal a = carrying(leaf(0, 5));
  EXPECT_EQ(merge_writes(std::vector{&none, &a, &none}).get(), a.writes.get());
  EXPECT_EQ(merge_writes(std::vector{&a}).get(), a.writes.get());
}

TEST(WriteSet, WireBytesMatchTheFlatVectorFormula) {
  const Proposal a = carrying(leaf(0, 7));
  const Proposal b = carrying(leaf(7, 5));
  Proposal merged = carrying(merge_writes(std::vector{&a, &b}));
  merged.membership = {{MembershipUpdate::Kind::kLeave, 3},
                       {MembershipUpdate::Kind::kJoin, 4}};
  std::vector<kv::Request> flat;
  merged.writes->append_to(flat);
  EXPECT_EQ(merged.wire_bytes(),
            64 + kv::kRequestWire * flat.size() + 8 * merged.membership.size());
  EXPECT_EQ(merged.wire_bytes(), 64 + 40 * 12 + 8 * 2u);
  EXPECT_EQ(Proposal{}.wire_bytes(), 64u);
}

/// Heap allocations `build` makes.
template <class F>
std::uint64_t allocations_of(F&& build) {
  const std::uint64_t before = bench::heap_allocations();
  build();
  return bench::heap_allocations() - before;
}

TEST(WriteSet, EachLeafAndEachMergedSetIsOneAllocation) {
  const std::vector<kv::Request> batch = requests(0, 1000);
  WriteSet::Ptr built;
  EXPECT_EQ(allocations_of([&] { built = WriteSet::leaf(batch); }), 1u);
  const Proposal a = carrying(std::move(built));
  const Proposal b = carrying(leaf(1000, 3));
  const Proposal c = carrying(leaf(2000, 1));
  const Proposal none;
  const std::vector two{&none, &b, &a};
  const std::vector three{&c, &a, &b};
  const std::vector one{&none, &a, &none};

  EXPECT_EQ(allocations_of([&] { built = merge_writes(two); }), 1u);
  const Proposal ba = carrying(std::move(built));
  EXPECT_EQ(allocations_of([&] { built = merge_writes(three); }), 1u);
  EXPECT_EQ(built->size(), 1004u);
  // A merge of merged sets holds their handles too.
  const std::vector nested{&ba, &c};
  EXPECT_EQ(allocations_of([&] { built = merge_writes(nested); }), 1u);
  EXPECT_EQ(built->parts().size(), 2u);
  EXPECT_EQ(allocations_of([&] { built = merge_writes(one); }), 0u);
  EXPECT_EQ(built.get(), a.writes.get());
  // Copying a handle adds a holder; it never copies the set.
  EXPECT_EQ(allocations_of([&] { const Proposal copy = ba; }), 0u);
}

// Sets cross threads inside proposals (PDES shards, the threaded backend),
// so the last holder may drop on another thread than the one that built
// the set. A second thread flattens a merged set and drops it and one of
// its leaves, while this thread drops its own handles; a relaxed flag,
// which synchronizes nothing, picks which thread drops last. Under
// ThreadSanitizer this checks that the first thread's reads happen before
// the last one's free; under AddressSanitizer, that the last drop frees
// each block exactly once.
TEST(WriteSet, LastDropOnEitherThreadFreesEverythingOnce) {
  for (const bool this_thread_last : {true, false}) {
    Proposal a = carrying(leaf(0, 2));
    Proposal b = carrying(leaf(10, 3));
    WriteSet::Ptr merged = merge_writes(std::vector{&a, &b});
    std::atomic<bool> first_dropped{false};
    std::vector<std::uint64_t> seen;
    std::thread other([set = merged, part = a.writes, &seen, &first_dropped,
                       this_thread_last]() mutable {
      if (!this_thread_last) {
        while (!first_dropped.load(std::memory_order_relaxed))
          std::this_thread::yield();
      }
      seen = keys(*set);
      set = nullptr;
      part = nullptr;
      if (this_thread_last)
        first_dropped.store(true, std::memory_order_relaxed);
    });
    if (this_thread_last) {
      while (!first_dropped.load(std::memory_order_relaxed))
        std::this_thread::yield();
    }
    a.writes = nullptr;
    b.writes = nullptr;
    merged = nullptr;
    if (!this_thread_last) first_dropped.store(true, std::memory_order_relaxed);
    other.join();
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 10, 11, 12}))
        << "this thread last: " << this_thread_last;
  }
}

}  // namespace
}  // namespace canopus::proto
