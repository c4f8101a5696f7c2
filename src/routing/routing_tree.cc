#include "routing/routing_tree.h"

#include <algorithm>
#include <queue>

#include "common/logging.h"

namespace aspen {
namespace routing {

RoutingTree RoutingTree::Build(const net::Topology& topology, NodeId root) {
  const int n = topology.num_nodes();
  ASPEN_CHECK(root >= 0 && root < n);
  RoutingTree tree;
  tree.root_ = root;
  tree.parent_.assign(n, -1);
  tree.depth_.assign(n, -1);
  tree.children_.assign(n, {});

  std::queue<NodeId> frontier;
  tree.depth_[root] = 0;
  frontier.push(root);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    // Adjacency lists are id-ordered, so first discovery matches the
    // "lowest-id beacon wins" tie-break.
    for (NodeId v : topology.neighbors(u)) {
      if (tree.depth_[v] < 0) {
        tree.depth_[v] = tree.depth_[u] + 1;
        tree.parent_[v] = u;
        tree.children_[u].push_back(v);
        frontier.push(v);
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    ASPEN_CHECK(tree.depth_[i] >= 0);  // generators guarantee connectivity
  }
  return tree;
}

std::vector<NodeId> RoutingTree::PathToRoot(NodeId id) const {
  std::vector<NodeId> path;
  for (NodeId u = id; u != -1; u = parent_[u]) path.push_back(u);
  return path;
}

std::vector<NodeId> RoutingTree::PathFromRoot(NodeId id) const {
  auto path = PathToRoot(id);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> RoutingTree::TreePath(NodeId a, NodeId b) const {
  if (a == b) return {a};
  auto up_a = PathToRoot(a);  // a ... root
  auto up_b = PathToRoot(b);  // b ... root
  // Strip the common suffix down to the LCA.
  size_t ia = up_a.size(), ib = up_b.size();
  while (ia > 0 && ib > 0 && up_a[ia - 1] == up_b[ib - 1]) {
    --ia;
    --ib;
  }
  // up_a[ia] (== up_b[ib]) is one past the LCA in both; the LCA itself is
  // up_a[ia] when indices stopped, i.e. the last stripped element.
  std::vector<NodeId> path(up_a.begin(), up_a.begin() + ia + 1);
  for (size_t k = ib; k-- > 0;) path.push_back(up_b[k]);
  return path;
}

}  // namespace routing
}  // namespace aspen
