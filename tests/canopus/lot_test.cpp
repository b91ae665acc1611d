#include "canopus/lot.h"

#include <gtest/gtest.h>

namespace canopus::lot {
namespace {

LotConfig paper_figure1() {
  // 27 pnodes, 3 per super-leaf, 9 super-leaves, arity 3 -> height 3
  // (the shape of the paper's Figure 1).
  LotConfig cfg;
  for (NodeId p = 0; p < 27; p += 3)
    cfg.super_leaves.push_back({p, p + 1, p + 2});
  cfg.arity = 3;
  return cfg;
}

TEST(Lot, SingleSuperLeafHeightOne) {
  Lot t = Lot::build({{{0, 1, 2}}, 0});
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(t.num_pnodes(), 3u);
  EXPECT_EQ(t.num_vnodes(), 4u);  // 3 leaves + root
  EXPECT_EQ(t.root(), t.super_leaf_vnode(0));
}

TEST(Lot, TwoSuperLeavesHeightTwo) {
  Lot t = Lot::build({{{0, 1, 2}, {3, 4, 5}}, 0});
  EXPECT_EQ(t.height(), 2);
  EXPECT_EQ(t.num_vnodes(), 9u);  // 6 leaves + 2 SL vnodes + root
  EXPECT_EQ(t.children(t.root()).size(), 2u);
}

TEST(Lot, Figure1ShapeIsHeightThree) {
  Lot t = Lot::build(paper_figure1());
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.num_pnodes(), 27u);
  // 27 leaves + 9 SL vnodes + 3 mid vnodes + root.
  EXPECT_EQ(t.num_vnodes(), 40u);
  EXPECT_EQ(t.children(t.root()).size(), 3u);
  EXPECT_EQ(t.descendants(t.root()).size(), 27u);
}

TEST(Lot, AncestorChainReachesRoot) {
  Lot t = Lot::build(paper_figure1());
  const NodeId p = 13;
  EXPECT_EQ(t.ancestor(p, 0), t.leaf_of(p));
  EXPECT_EQ(t.level(t.ancestor(p, 1)), 1);
  EXPECT_EQ(t.level(t.ancestor(p, 2)), 2);
  EXPECT_EQ(t.ancestor(p, 3), t.root());
}

TEST(Lot, DescendantsOfHeight1AreSuperLeafMembers) {
  Lot t = Lot::build({{{10, 11, 12}, {20, 21, 22}}, 0});
  const VnodeId u0 = t.super_leaf_vnode(0);
  EXPECT_EQ(t.descendants(u0), (std::vector<NodeId>{10, 11, 12}));
  EXPECT_EQ(t.super_leaf_of(21), 1);
  EXPECT_EQ(t.super_leaf_of(10), 0);
}

TEST(Lot, NamesAreDottedPaths) {
  Lot t = Lot::build(paper_figure1());
  EXPECT_EQ(t.name(t.root()), "1");
  EXPECT_EQ(t.name(t.children(t.root())[0]), "1.1");
  EXPECT_EQ(t.name(t.children(t.children(t.root())[0])[1]), "1.1.2");
  // Leaf N in Figure 1 is the first pnode of the first super-leaf.
  EXPECT_EQ(t.name(t.leaf_of(0)), "1.1.1.1");
}

TEST(Lot, PnodeIdsNeedNotBeDense) {
  Lot t = Lot::build({{{100, 7}, {42, 3}}, 0});
  EXPECT_EQ(t.num_pnodes(), 4u);
  EXPECT_EQ(t.super_leaf_of(42), 1);
  EXPECT_EQ(t.pnode_of(t.leaf_of(100)), 100u);
}

TEST(Lot, RejectsInvalidConfigs) {
  EXPECT_THROW(Lot::build({{}, 0}), std::invalid_argument);
  EXPECT_THROW(Lot::build({{{1, 2}, {}}, 0}), std::invalid_argument);
  EXPECT_THROW(Lot::build({{{1}, {2}}, 1}), std::invalid_argument);
  EXPECT_THROW(Lot::build({{{1, 2}, {2, 3}}, 0}), std::invalid_argument);
}

TEST(Lot, UnknownPnodeThrows) {
  Lot t = Lot::build({{{0, 1}}, 0});
  EXPECT_THROW(t.leaf_of(99), std::out_of_range);
}

TEST(EmulationTable, StartsAllLive) {
  Lot t = Lot::build({{{0, 1, 2}, {3, 4, 5}}, 0});
  EmulationTable e(t);
  EXPECT_EQ(e.live_count(), 6u);
  EXPECT_EQ(e.emulators(t.root()).size(), 6u);
  EXPECT_TRUE(e.is_live(4));
}

TEST(EmulationTable, RemoveDropsFromAllAncestors) {
  Lot t = Lot::build({{{0, 1, 2}, {3, 4, 5}}, 0});
  EmulationTable e(t);
  e.remove(4);
  EXPECT_FALSE(e.is_live(4));
  EXPECT_EQ(e.emulators(t.root()).size(), 5u);
  EXPECT_EQ(e.emulators(t.super_leaf_vnode(1)),
            (std::vector<NodeId>{3, 5}));
  // Super-leaf 0 unaffected.
  EXPECT_EQ(e.emulators(t.super_leaf_vnode(0)).size(), 3u);
}

TEST(EmulationTable, RemoveIsIdempotentAndReversible) {
  Lot t = Lot::build({{{0, 1, 2}}, 0});
  EmulationTable e(t);
  e.remove(1);
  e.remove(1);
  EXPECT_EQ(e.live_count(), 2u);
  e.add(1);
  e.add(1);
  EXPECT_EQ(e.live_count(), 3u);
  EXPECT_TRUE(e.is_live(1));
}

TEST(Lot, TallTreeWithArity2) {
  LotConfig cfg;
  for (NodeId p = 0; p < 16; p += 2) cfg.super_leaves.push_back({p, p + 1});
  cfg.arity = 2;
  Lot t = Lot::build(cfg);
  // 8 super-leaves, arity 2: heights 1(SL), 2, 3, 4(root).
  EXPECT_EQ(t.height(), 4);
  EXPECT_EQ(t.children(t.root()).size(), 2u);
  EXPECT_EQ(t.descendants(t.root()).size(), 16u);
}

TEST(Lot, UnevenLastGroup) {
  LotConfig cfg;
  for (NodeId p = 0; p < 6; p += 2) cfg.super_leaves.push_back({p, p + 1});
  cfg.arity = 2;  // 3 SL vnodes group into 2 + 1
  Lot t = Lot::build(cfg);
  EXPECT_EQ(t.height(), 3);
  EXPECT_EQ(t.descendants(t.root()).size(), 6u);
}

}  // namespace
}  // namespace canopus::lot
