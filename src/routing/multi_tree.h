// Multi-tree content-addressable routing substrate ([11], Appendix C).
//
// The substrate maintains several overlapping routing trees: the first is
// rooted at the base station; each further root is the node furthest (in
// hops) from all existing roots. Static attributes are indexed bottom-up
// into per-child summaries (semantic routing tables), and exploration
// queries route toward nodes holding a sought join-key value by descending
// only into subtrees whose summaries may contain it — ascending toward the
// root "for completeness", but never re-ascending after a descent.
//
// Exploration here is computed rather than simulated message-by-message, but
// every hop the distributed protocol would transmit is charged to the
// supplied TrafficStats and the critical-path hop count is reported as
// latency — the same accounting the paper measures (see DESIGN.md).

#ifndef ASPEN_ROUTING_MULTI_TREE_H_
#define ASPEN_ROUTING_MULTI_TREE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/network.h"
#include "routing/routing_tree.h"
#include "routing/summary.h"

namespace aspen {
namespace routing {

/// \brief Builds a shared Steiner multicast tree rooted at `source`
/// covering every node in `targets`, by the KMB approximation: metric
/// closure over the terminal set (BFS hop distances), a deterministic
/// Prim MST over the closure (ties broken by node id), shortest-path
/// expansion of each MST edge, and a final prune to the union of
/// source→target tree paths.
///
/// The result depends only on (topology, source, targets) — never on any
/// query's explored path segments or extra links — so two queries with
/// the same destination set build byte-identical trees and the
/// RouteTable's destination-set lookup (`FindSharedMulticast`) lets the
/// second adopt the first's interned tree outright. Edges connect
/// topology neighbors; `targets` appear in the returned route's sorted
/// target list exactly once. Unreachable targets are dropped.
net::MulticastRoute BuildSharedSteinerTree(const net::Topology& topo,
                                           net::NodeId source,
                                           const std::vector<net::NodeId>& targets);

/// \brief Declaration of a static attribute to index in the routing tables.
struct IndexedAttribute {
  std::string name;
  SummaryType summary_type = SummaryType::kBloom;
  /// Static value of this attribute at each node.
  std::function<int32_t(NodeId)> value_fn;
};

/// \brief One discovered route from a search source to a matching target.
struct FoundPath {
  NodeId target = -1;
  /// Route [source, ..., target] along tree edges actually explored.
  std::vector<NodeId> path;
  /// Which tree the path was found in.
  int tree_index = 0;
};

/// \brief Traffic/latency accounting for one exploration.
struct SearchStats {
  int64_t exploration_bytes = 0;  ///< forward search messages
  int64_t reply_bytes = 0;        ///< reversed path-vector replies
  int max_hops = 0;               ///< critical-path latency in hops
  int nodes_visited = 0;
  int paths_found = 0;
};

/// \brief Options controlling the substrate.
struct MultiTreeOptions {
  int num_trees = 3;
  /// Rectangle budget of the per-subtree position R-trees.
  int rtree_max_rects = 4;
};

/// \brief The multi-tree routing substrate.
class MultiTree {
 public:
  /// Builds `options.num_trees` trees over `topology`.
  MultiTree(const net::Topology* topology, MultiTreeOptions options);

  int num_trees() const { return static_cast<int>(trees_.size()); }
  const RoutingTree& tree(int i) const { return *trees_[i]; }
  /// The tree rooted at the base station (index 0).
  const RoutingTree& primary() const { return *trees_[0]; }
  const net::Topology& topology() const { return *topology_; }

  /// \brief Indexes a scalar static attribute in every tree's routing
  /// tables. Returns the attribute index used in searches.
  ///
  /// `SummaryType::kExact` tables are not materialized per node: each tree
  /// keeps one O(n) subtree-interval index that answers every per-child
  /// membership question exactly as an ExactSummary of that child's subtree
  /// would.
  Result<int> IndexAttribute(const IndexedAttribute& attr);

  /// \brief The pruning decision exploration makes before descending from
  /// `node` into its `child_idx`-th child in tree `tree`: whether that
  /// child's subtree summary of attribute `attr_idx` may contain `value`.
  bool ChildMayContain(int attr_idx, int tree, NodeId node, size_t child_idx,
                       int32_t value) const;

  /// \brief Indexes node positions with per-subtree R-trees (for
  /// region-based predicates such as Query 3's Dst < 5m).
  void IndexPositions();

  /// \brief Finds nodes whose indexed attribute `attr_idx` equals `value`
  /// and that satisfy `accept` (secondary static predicates; may be null).
  ///
  /// Searches every tree from `source`; at most one path per (target, tree)
  /// is returned and the source itself is never a target. Traffic for every
  /// explored hop plus the reply path-vectors is charged to `*stats` (the
  /// TrafficStats of the experiment's network) when non-null, and
  /// `search_stats` (when non-null) receives the per-search accounting.
  std::vector<FoundPath> FindMatches(
      NodeId source, int attr_idx, int32_t value,
      const std::function<bool(NodeId)>& accept = nullptr,
      net::TrafficStats* stats = nullptr,
      SearchStats* search_stats = nullptr) const;

  /// \brief Finds nodes within `radius` meters of `source`'s position,
  /// using the R-tree summaries. Requires IndexPositions() first.
  std::vector<FoundPath> FindWithinRadius(
      NodeId source, double radius,
      const std::function<bool(NodeId)>& accept = nullptr,
      net::TrafficStats* stats = nullptr,
      SearchStats* search_stats = nullptr) const;

  /// Roots chosen for each tree (index 0 is the base station).
  const std::vector<NodeId>& roots() const { return roots_; }

 private:
  /// Exact subtree membership for one tree. In a pre-order tour every
  /// subtree is the contiguous position range [tin[u], tout[u]), so "does
  /// u's subtree hold value v" is "does one of v's tour positions fall in
  /// that range".
  struct ExactTreeIndex {
    std::vector<int32_t> tin;   ///< pre-order position, children in order
    std::vector<int32_t> tout;  ///< tin + subtree size
    /// Tour positions of all nodes, grouped by value in the order of
    /// ScalarIndex::sorted_values and ascending within each group.
    std::vector<int32_t> tins_by_value;
  };

  /// Per-tree, per-node semantic routing table for one scalar attribute.
  struct ScalarIndex {
    IndexedAttribute decl;
    /// value_fn(u) for every node, tabulated at index time — searches test
    /// candidates against this instead of re-evaluating the expression.
    std::vector<int32_t> values;
    /// Bloom / Interval: child_summary[tree][node] — summaries keyed
    /// parallel to RoutingTree::ChildrenOf(node).
    std::vector<std::vector<std::vector<std::unique_ptr<ScalarSummary>>>>
        per_tree;
    /// Exact: `values` in ascending order (one group per distinct value,
    /// the same offsets in every tree), and one tour index per tree.
    std::vector<int32_t> sorted_values;
    std::vector<ExactTreeIndex> exact;
  };

  /// Offsets [first, second) of `value`'s group in an exact index.
  static std::pair<size_t, size_t> ExactSlice(const ScalarIndex& index,
                                              int32_t value);
  /// Whether `child`'s subtree holds a tour position of `slice`.
  static bool ExactSubtreeHolds(const ExactTreeIndex& tree_index,
                                std::pair<size_t, size_t> slice, NodeId child);
  /// Builds `tree`'s exact index over `values` and fills `sorted_values`.
  static ExactTreeIndex BuildExactTreeIndex(const RoutingTree& tree,
                                            const std::vector<int32_t>& values,
                                            std::vector<int32_t>* sorted_values);

  struct PositionIndex {
    bool built = false;
    std::vector<std::vector<std::vector<RTreeSummary>>> per_tree;
  };

  /// Visitor-based search shared by FindMatches / FindWithinRadius.
  /// `descend(tree, node, child_idx)` decides whether a child subtree can
  /// hold a match; `matches(node)` tests a concrete node.
  std::vector<FoundPath> Search(
      NodeId source,
      const std::function<bool(int, NodeId, size_t)>& descend,
      const std::function<bool(NodeId)>& matches,
      net::TrafficStats* stats, SearchStats* search_stats) const;

  void ChargeExploreHop(NodeId from, int depth, net::TrafficStats* stats,
                        SearchStats* ss) const;
  void ChargeReply(const std::vector<NodeId>& path, net::TrafficStats* stats,
                   SearchStats* ss) const;

  const net::Topology* topology_;
  MultiTreeOptions options_;
  std::vector<std::unique_ptr<RoutingTree>> trees_;
  std::vector<NodeId> roots_;
  std::vector<ScalarIndex> scalar_indexes_;
  PositionIndex position_index_;
};

}  // namespace routing
}  // namespace aspen

#endif  // ASPEN_ROUTING_MULTI_TREE_H_
