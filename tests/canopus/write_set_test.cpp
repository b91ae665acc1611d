// proto::WriteSet and proto::merge_writes (canopus/messages.h): a merged
// state shares its inputs' write sets by pointer, and flattening it yields
// exactly the concatenation a flat merge would have built (§4.2).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "canopus/messages.h"

namespace canopus::proto {
namespace {

/// A leaf set of `n` writes with keys first, first+1, ...
WriteSet::Ptr leaf(std::uint64_t first, std::size_t n) {
  std::vector<kv::Request> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch[i].is_write = true;
    batch[i].key = first + i;
  }
  return std::make_shared<const WriteSet>(std::move(batch));
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
  EXPECT_TRUE(a.writes->parts().empty());  // a leaf owns its batch
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

}  // namespace
}  // namespace canopus::proto
