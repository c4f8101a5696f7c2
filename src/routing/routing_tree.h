// Single routing tree (TinyDB-style [10]): every node knows its parent,
// depth and children; messages to the base follow parent pointers without
// carrying a route. Construction is BFS from the root with deterministic
// tie-breaking (lowest node id first), which models beacon flooding where
// each node adopts the first/best beacon it hears.

#ifndef ASPEN_ROUTING_ROUTING_TREE_H_
#define ASPEN_ROUTING_ROUTING_TREE_H_

#include <vector>

#include "net/network.h"
#include "net/topology.h"

namespace aspen {
namespace routing {

using net::NodeId;

/// \brief A rooted spanning tree over the connectivity graph.
class RoutingTree : public net::ParentResolver {
 public:
  /// Builds a BFS tree rooted at `root`.
  static RoutingTree Build(const net::Topology& topology, NodeId root);

  NodeId root() const { return root_; }
  int num_nodes() const { return static_cast<int>(parent_.size()); }

  /// net::ParentResolver: next hop toward the root (-1 at the root).
  NodeId ParentOf(NodeId at) const override { return parent_[at]; }

  /// Hop count from `id` to the root.
  int DepthOf(NodeId id) const { return depth_[id]; }

  const std::vector<NodeId>& ChildrenOf(NodeId id) const {
    return children_[id];
  }

  /// Path [id, ..., root].
  std::vector<NodeId> PathToRoot(NodeId id) const;

  /// Path [root, ..., id].
  std::vector<NodeId> PathFromRoot(NodeId id) const;

  /// Tree path [a, ..., lca, ..., b] through the lowest common ancestor —
  /// the only route between two nodes when a single tree is the substrate.
  std::vector<NodeId> TreePath(NodeId a, NodeId b) const;

 private:
  RoutingTree() = default;

  NodeId root_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> depth_;
  std::vector<std::vector<NodeId>> children_;
};

}  // namespace routing
}  // namespace aspen

#endif  // ASPEN_ROUTING_ROUTING_TREE_H_
