#include <set>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "routing/routing_tree.h"

namespace aspen {
namespace routing {
namespace {

class RoutingTreeTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    auto topo = net::Topology::Random(80, 7.0, GetParam());
    ASSERT_TRUE(topo.ok());
    topo_ = std::make_unique<net::Topology>(std::move(*topo));
    tree_ = std::make_unique<RoutingTree>(RoutingTree::Build(*topo_, 0));
  }

  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<RoutingTree> tree_;
};

TEST_P(RoutingTreeTest, DepthsEqualBfsDistance) {
  auto dist = topo_->HopDistancesFrom(0);
  for (net::NodeId u = 0; u < topo_->num_nodes(); ++u) {
    EXPECT_EQ(tree_->DepthOf(u), dist[u]);
  }
}

TEST_P(RoutingTreeTest, ParentChildConsistency) {
  EXPECT_EQ(tree_->ParentOf(0), -1);
  std::set<net::NodeId> seen{0};
  for (net::NodeId u = 1; u < topo_->num_nodes(); ++u) {
    net::NodeId p = tree_->ParentOf(u);
    ASSERT_GE(p, 0);
    EXPECT_TRUE(topo_->AreNeighbors(u, p));
    EXPECT_EQ(tree_->DepthOf(u), tree_->DepthOf(p) + 1);
    const auto& kids = tree_->ChildrenOf(p);
    EXPECT_NE(std::find(kids.begin(), kids.end(), u), kids.end());
    seen.insert(u);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), topo_->num_nodes());
}

TEST_P(RoutingTreeTest, PathToRootFollowsParents) {
  for (net::NodeId u : {3, 17, 42, 79}) {
    auto path = tree_->PathToRoot(u);
    EXPECT_EQ(path.front(), u);
    EXPECT_EQ(path.back(), 0);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, tree_->DepthOf(u));
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_EQ(tree_->ParentOf(path[i]), path[i + 1]);
    }
  }
}

TEST_P(RoutingTreeTest, TreePathConnectsThroughLca) {
  for (auto [a, b] : std::vector<std::pair<net::NodeId, net::NodeId>>{
           {5, 60}, {12, 13}, {0, 44}, {44, 0}, {7, 7}}) {
    auto path = tree_->TreePath(a, b);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    // Every hop is a tree edge.
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      bool edge = tree_->ParentOf(path[i]) == path[i + 1] ||
                  tree_->ParentOf(path[i + 1]) == path[i];
      EXPECT_TRUE(edge) << path[i] << "->" << path[i + 1];
    }
    // No repeated nodes.
    std::set<net::NodeId> uniq(path.begin(), path.end());
    EXPECT_EQ(uniq.size(), path.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTreeTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(RoutingTreeTrafficTest, NonBaseRoot) {
  auto topo = net::Topology::Random(40, 7.0, 4);
  ASSERT_TRUE(topo.ok());
  RoutingTree tree = RoutingTree::Build(*topo, 17);
  EXPECT_EQ(tree.root(), 17);
  EXPECT_EQ(tree.DepthOf(17), 0);
  EXPECT_EQ(tree.ParentOf(17), -1);
}

}  // namespace
}  // namespace routing
}  // namespace aspen
