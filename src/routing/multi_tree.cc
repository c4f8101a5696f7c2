#include "routing/multi_tree.h"

#include <algorithm>
#include <climits>
#include <map>
#include <queue>
#include <set>

#include "common/logging.h"
#include "net/message.h"

namespace aspen {
namespace routing {

net::MulticastRoute BuildSharedSteinerTree(
    const net::Topology& topo, net::NodeId source,
    const std::vector<net::NodeId>& targets) {
  using net::NodeId;
  net::MulticastRoute route;
  // Terminal set: sorted unique targets; the source spans them.
  std::vector<NodeId> terms = targets;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  const bool source_is_target =
      std::binary_search(terms.begin(), terms.end(), source);
  std::vector<NodeId> steiner;
  for (NodeId t : terms) {
    if (t != source) steiner.push_back(t);
  }
  if (steiner.empty()) {
    // A target co-located with the source needs delivery but no edges.
    if (source_is_target) route.targets.push_back(source);
    return route;
  }

  // KMB step 1 — metric closure over {source} ∪ terminals via BFS hop
  // distances (deterministic: adjacency lists are in fixed order). Only
  // distances to terminals are read, and a BFS distance is final when it
  // is first assigned, so each search stops once every terminal has one.
  // closure[r * n + i] holds the hops from origin r (0 = the source,
  // 1 + k = steiner[k]) to steiner[i]; -1 = unreachable.
  const size_t n = steiner.size();
  std::vector<int> closure((n + 1) * n, -1);
  std::vector<int32_t> term_slot(topo.num_nodes(), -1);
  for (size_t i = 0; i < n; ++i) {
    term_slot[steiner[i]] = static_cast<int32_t>(i);
  }
  std::vector<int> dist(topo.num_nodes(), -1);
  std::vector<NodeId> fifo;  // BFS queue; also the visited list to reset
  auto closure_row = [&](NodeId origin, int* row) {
    size_t remaining = n;
    auto reach = [&](NodeId v, int d) {
      dist[v] = d;
      fifo.push_back(v);
      if (term_slot[v] >= 0) {
        row[term_slot[v]] = d;
        --remaining;
      }
    };
    fifo.clear();
    reach(origin, 0);
    for (size_t head = 0; head < fifo.size() && remaining > 0; ++head) {
      const NodeId u = fifo[head];
      for (NodeId v : topo.neighbors(u)) {
        if (dist[v] < 0) reach(v, dist[u] + 1);
      }
    }
    for (NodeId u : fifo) dist[u] = -1;
  };
  closure_row(source, closure.data());
  for (size_t k = 0; k < n; ++k) {
    closure_row(steiner[k], closure.data() + (k + 1) * n);
  }

  // KMB step 2 — Prim MST over the closure, rooted at the source. Ties
  // break toward the smaller terminal id, then the smaller attach id, so
  // the tree depends only on (topology, source, targets).
  std::vector<int> best(n, INT_MAX);
  std::vector<int> attach(n, -1);  // index into steiner; -1 = the source
  std::vector<char> in_tree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int d = closure[i];
    if (d >= 0) best[i] = d;
  }
  auto attach_id = [&](int a) { return a < 0 ? source : steiner[a]; };
  std::vector<std::pair<int, int>> mst;  // (attach index or -1, steiner index)
  for (size_t round = 0; round < n; ++round) {
    int pick = -1;
    for (size_t i = 0; i < n; ++i) {
      if (in_tree[i] || best[i] == INT_MAX) continue;
      if (pick < 0 || best[i] < best[pick] ||
          (best[i] == best[pick] && steiner[i] < steiner[pick])) {
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;  // remaining terminals unreachable
    in_tree[pick] = 1;
    mst.emplace_back(attach[pick], pick);
    const int* dp = closure.data() + (static_cast<size_t>(pick) + 1) * n;
    for (size_t i = 0; i < n; ++i) {
      if (in_tree[i]) continue;
      const int d = dp[i];
      if (d < 0) continue;
      if (d < best[i] ||
          (d == best[i] && steiner[pick] < attach_id(attach[i]))) {
        best[i] = d;
        attach[i] = pick;
      }
    }
  }

  // KMB step 3 — expand each MST edge along a shortest topology path and
  // union the hops as undirected edges.
  std::set<std::pair<NodeId, NodeId>> edges;
  for (const auto& [a, t] : mst) {
    const std::vector<NodeId> path =
        topo.ShortestPath(attach_id(a), steiner[t]);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      edges.insert({path[i], path[i + 1]});
      edges.insert({path[i + 1], path[i]});
    }
  }

  // KMB step 4 — prune: BFS from the source over the union (sorted
  // adjacency, deterministic), keep only edges on source→target paths.
  std::map<NodeId, std::vector<NodeId>> adj;
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  std::map<NodeId, NodeId> parent;
  std::queue<NodeId> frontier;
  parent[source] = source;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : adj[u]) {
      if (parent.find(v) == parent.end()) {
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (NodeId t : terms) {
    if (t == source) {
      route.targets.push_back(t);
      continue;
    }
    if (parent.find(t) == parent.end()) continue;  // unreachable: dropped
    route.targets.push_back(t);
    for (NodeId u = t; u != source; u = parent[u]) {
      tree_edges.insert({parent[u], u});
    }
  }
  route.edges.assign(tree_edges.begin(), tree_edges.end());
  route.Normalize();
  return route;
}

namespace {
// Forward exploration message: query id (2), sought value (2), origin (2),
// plus the growing delta-encoded path vector (1 byte/hop).
constexpr int kExploreBaseBytes = 6;
// Reply: query id (2) + target id (2); carries the reversed path vector and
// the hops-to-base array for join-node placement (1 byte/hop each).
constexpr int kReplyBaseBytes = 4;
}  // namespace

MultiTree::MultiTree(const net::Topology* topology, MultiTreeOptions options)
    : topology_(topology), options_(options) {
  ASPEN_CHECK(options_.num_trees >= 1);
  const int n = topology_->num_nodes();
  // Tree 0 is rooted at the base station; each further root maximizes the
  // minimum hop distance to all existing roots (furthest-first).
  roots_.push_back(0);
  std::vector<int> min_dist = topology_->HopDistancesFrom(0);
  for (int t = 1; t < options_.num_trees; ++t) {
    NodeId best = -1;
    int best_d = -1;
    for (NodeId u = 0; u < n; ++u) {
      if (min_dist[u] > best_d) {
        best_d = min_dist[u];
        best = u;
      }
    }
    roots_.push_back(best);
    auto d = topology_->HopDistancesFrom(best);
    for (NodeId u = 0; u < n; ++u) min_dist[u] = std::min(min_dist[u], d[u]);
  }
  for (NodeId root : roots_) {
    trees_.push_back(
        std::make_unique<RoutingTree>(RoutingTree::Build(*topology_, root)));
  }
}

Result<int> MultiTree::IndexAttribute(const IndexedAttribute& attr) {
  if (!attr.value_fn) {
    return Status::InvalidArgument("IndexAttribute: missing value_fn");
  }
  const int n = topology_->num_nodes();
  ScalarIndex index;
  index.decl = attr;
  index.values.resize(n);
  for (NodeId u = 0; u < n; ++u) index.values[u] = attr.value_fn(u);
  if (attr.summary_type == SummaryType::kExact) {
    for (const auto& tree : trees_) {
      index.exact.push_back(
          BuildExactTreeIndex(*tree, index.values, &index.sorted_values));
    }
    scalar_indexes_.push_back(std::move(index));
    return static_cast<int>(scalar_indexes_.size()) - 1;
  }
  index.per_tree.resize(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    const RoutingTree& tree = *trees_[t];
    auto& per_node = index.per_tree[t];
    per_node.resize(n);
    // Post-order accumulation: subtree summary = own value + children's.
    std::vector<std::unique_ptr<ScalarSummary>> subtree(n);
    // Process nodes deepest-first.
    std::vector<NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return tree.DepthOf(a) > tree.DepthOf(b);
    });
    for (NodeId u : order) {
      auto own = ScalarSummary::Make(attr.summary_type);
      own->Insert(index.values[u]);
      const auto& children = tree.ChildrenOf(u);
      per_node[u].reserve(children.size());
      for (NodeId c : children) {
        ASPEN_DCHECK(subtree[c] != nullptr);
        per_node[u].push_back(subtree[c]->Clone());
        own->Merge(*subtree[c]);
      }
      subtree[u] = std::move(own);
    }
  }
  scalar_indexes_.push_back(std::move(index));
  return static_cast<int>(scalar_indexes_.size()) - 1;
}

MultiTree::ExactTreeIndex MultiTree::BuildExactTreeIndex(
    const RoutingTree& tree, const std::vector<int32_t>& values,
    std::vector<int32_t>* sorted_values) {
  const int n = static_cast<int>(values.size());
  ExactTreeIndex index;
  index.tin.resize(n);
  index.tout.resize(n);
  // Pre-order tour, children in ChildrenOf order; `order` maps tour
  // positions back to nodes.
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> stack{tree.root()};
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    index.tin[u] = static_cast<int32_t>(order.size());
    order.push_back(u);
    const auto& children = tree.ChildrenOf(u);
    for (size_t ci = children.size(); ci-- > 0;) stack.push_back(children[ci]);
  }
  ASPEN_CHECK_EQ(static_cast<int>(order.size()), n);
  // Subtree sizes: every node follows its parent in the tour, so a reverse
  // walk completes each subtree before adding it to its parent.
  std::vector<int32_t> size(n, 1);
  for (int i = n; i-- > 1;) size[tree.ParentOf(order[i])] += size[order[i]];
  for (NodeId u = 0; u < n; ++u) index.tout[u] = index.tin[u] + size[u];

  // (value, tour position), sorted: one group per value, positions ascending.
  std::vector<std::pair<int32_t, int32_t>> keyed(n);
  for (NodeId u = 0; u < n; ++u) keyed[u] = {values[u], index.tin[u]};
  std::sort(keyed.begin(), keyed.end());
  sorted_values->resize(n);
  index.tins_by_value.resize(n);
  for (int i = 0; i < n; ++i) {
    (*sorted_values)[i] = keyed[i].first;
    index.tins_by_value[i] = keyed[i].second;
  }
  return index;
}

std::pair<size_t, size_t> MultiTree::ExactSlice(const ScalarIndex& index,
                                                int32_t value) {
  const auto& sorted = index.sorted_values;
  const auto range = std::equal_range(sorted.begin(), sorted.end(), value);
  return {static_cast<size_t>(range.first - sorted.begin()),
          static_cast<size_t>(range.second - sorted.begin())};
}

bool MultiTree::ExactSubtreeHolds(const ExactTreeIndex& tree_index,
                                  std::pair<size_t, size_t> slice,
                                  NodeId child) {
  const int32_t* first = tree_index.tins_by_value.data() + slice.first;
  const int32_t* last = tree_index.tins_by_value.data() + slice.second;
  const int32_t* it = std::lower_bound(first, last, tree_index.tin[child]);
  return it != last && *it < tree_index.tout[child];
}

bool MultiTree::ChildMayContain(int attr_idx, int tree, NodeId node,
                                size_t child_idx, int32_t value) const {
  ASPEN_CHECK(attr_idx >= 0 &&
              attr_idx < static_cast<int>(scalar_indexes_.size()));
  const ScalarIndex& index = scalar_indexes_[attr_idx];
  if (index.decl.summary_type != SummaryType::kExact) {
    return index.per_tree[tree][node][child_idx]->MayContain(value);
  }
  return ExactSubtreeHolds(index.exact[tree], ExactSlice(index, value),
                           trees_[tree]->ChildrenOf(node)[child_idx]);
}

void MultiTree::IndexPositions() {
  const int n = topology_->num_nodes();
  position_index_.built = true;
  position_index_.per_tree.assign(trees_.size(), {});
  for (size_t t = 0; t < trees_.size(); ++t) {
    const RoutingTree& tree = *trees_[t];
    auto& per_node = position_index_.per_tree[t];
    per_node.resize(n);
    std::vector<RTreeSummary> subtree(n, RTreeSummary(options_.rtree_max_rects));
    std::vector<NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return tree.DepthOf(a) > tree.DepthOf(b);
    });
    for (NodeId u : order) {
      RTreeSummary own(options_.rtree_max_rects);
      own.Insert(topology_->position(u));
      for (NodeId c : tree.ChildrenOf(u)) {
        per_node[u].push_back(subtree[c]);
        own.Merge(subtree[c]);
      }
      subtree[u] = own;
    }
  }
}

void MultiTree::ChargeExploreHop(NodeId from, int depth,
                                 net::TrafficStats* stats,
                                 SearchStats* ss) const {
  int bytes = net::WireFormat::kLinkHeaderBytes + kExploreBaseBytes +
              depth * net::WireFormat::kPathEntryBytes;
  if (stats != nullptr) {
    stats->RecordSend(from, net::MessageKind::kExploration, bytes);
  }
  if (ss != nullptr) {
    ss->exploration_bytes += bytes;
    ss->max_hops = std::max(ss->max_hops, depth + 1);
  }
}

void MultiTree::ChargeReply(const std::vector<NodeId>& path,
                            net::TrafficStats* stats, SearchStats* ss) const {
  // The reply retraces the path target -> source carrying the reversed path
  // vector plus the hops-to-base array used for join-node placement.
  const int hops = static_cast<int>(path.size()) - 1;
  const int bytes = net::WireFormat::kLinkHeaderBytes + kReplyBaseBytes +
                    2 * hops * net::WireFormat::kPathEntryBytes;
  for (size_t k = path.size(); k-- > 1;) {
    if (stats != nullptr) {
      stats->RecordSend(path[k], net::MessageKind::kExplorationReply, bytes);
    }
    if (ss != nullptr) ss->reply_bytes += bytes;
  }
  if (ss != nullptr) {
    ss->max_hops = std::max(ss->max_hops, 2 * hops);
    ++ss->paths_found;
  }
}

std::vector<FoundPath> MultiTree::Search(
    NodeId source, const std::function<bool(int, NodeId, size_t)>& descend,
    const std::function<bool(NodeId)>& matches, net::TrafficStats* stats,
    SearchStats* search_stats) const {
  std::vector<FoundPath> results;
  for (int t = 0; t < num_trees(); ++t) {
    const RoutingTree& tree = *trees_[t];
    // Stack items describe their path implicitly — an ascent prefix of
    // `up_path` plus the tree chain from the branch ancestor down to the
    // item's node — instead of materializing a vector per item. Descents
    // only ever follow tree edges, so the chain is recoverable by walking
    // ParentOf; only matches pay to build the actual path. (Materialized
    // per-item paths made exploration O(visited x depth) and dominated
    // initiation at 100k nodes.)
    struct Item {
      NodeId node;
      int up_prefix;  ///< leading entries of up_path on this item's path
      int path_len;   ///< total path entries, ending at `node`
    };
    // Ascent source -> ... -> root, grown by phase 2 below. Items only
    // reference prefixes that were complete when they were pushed.
    std::vector<NodeId> up_path{source};
    auto build_path = [&](const Item& item) {
      std::vector<NodeId> path(item.path_len);
      std::copy(up_path.begin(), up_path.begin() + item.up_prefix,
                path.begin());
      NodeId u = item.node;
      for (int k = item.path_len; k-- > item.up_prefix;) {
        path[k] = u;
        u = tree.ParentOf(u);
      }
      return path;
    };
    auto expand_down = [&](std::vector<Item>* stack, const Item& item) {
      const auto& children = tree.ChildrenOf(item.node);
      for (size_t ci = 0; ci < children.size(); ++ci) {
        if (!descend(t, item.node, ci)) continue;
        ChargeExploreHop(item.node, item.path_len - 1, stats, search_stats);
        stack->push_back(Item{children[ci], item.up_prefix, item.path_len + 1});
      }
    };
    auto visit = [&](const Item& item) {
      if (search_stats != nullptr) ++search_stats->nodes_visited;
      if (item.node != source && matches(item.node)) {
        std::vector<NodeId> path = build_path(item);
        ChargeReply(path, stats, search_stats);
        results.push_back(FoundPath{item.node, std::move(path), t});
      }
    };

    std::vector<Item> stack;
    // Phase 1: descend below the source.
    expand_down(&stack, Item{source, 1, 1});
    // Phase 2: ascend toward the root; at each ancestor, test the ancestor
    // itself and descend into its other children. Never re-ascend after a
    // descent.
    {
      NodeId cur = source;
      while (tree.ParentOf(cur) != -1) {
        NodeId p = tree.ParentOf(cur);
        ChargeExploreHop(cur, static_cast<int>(up_path.size()) - 1, stats,
                         search_stats);
        up_path.push_back(p);
        const int len = static_cast<int>(up_path.size());
        visit(Item{p, len, len});
        const auto& children = tree.ChildrenOf(p);
        for (size_t ci = 0; ci < children.size(); ++ci) {
          if (children[ci] == cur) continue;
          if (!descend(t, p, ci)) continue;
          ChargeExploreHop(p, len - 1, stats, search_stats);
          stack.push_back(Item{children[ci], len, len + 1});
        }
        cur = p;
      }
    }
    while (!stack.empty()) {
      Item item = stack.back();
      stack.pop_back();
      visit(item);
      expand_down(&stack, item);
    }
  }
  return results;
}

std::vector<FoundPath> MultiTree::FindMatches(
    NodeId source, int attr_idx, int32_t value,
    const std::function<bool(NodeId)>& accept, net::TrafficStats* stats,
    SearchStats* search_stats) const {
  ASPEN_CHECK(attr_idx >= 0 &&
              attr_idx < static_cast<int>(scalar_indexes_.size()));
  const ScalarIndex& index = scalar_indexes_[attr_idx];
  auto matches = [&](NodeId u) {
    if (index.values[u] != value) return false;
    return accept == nullptr || accept(u);
  };
  if (index.decl.summary_type == SummaryType::kExact) {
    // One group lookup per search; each descend is then a range probe into
    // the value's (usually tiny) group of tour positions.
    const std::pair<size_t, size_t> slice = ExactSlice(index, value);
    auto descend = [&](int t, NodeId u, size_t ci) {
      return ExactSubtreeHolds(index.exact[t], slice,
                               trees_[t]->ChildrenOf(u)[ci]);
    };
    return Search(source, descend, matches, stats, search_stats);
  }
  auto descend = [&](int t, NodeId u, size_t ci) {
    return index.per_tree[t][u][ci]->MayContain(value);
  };
  return Search(source, descend, matches, stats, search_stats);
}

std::vector<FoundPath> MultiTree::FindWithinRadius(
    NodeId source, double radius, const std::function<bool(NodeId)>& accept,
    net::TrafficStats* stats, SearchStats* search_stats) const {
  ASPEN_CHECK(position_index_.built);
  const net::Point& center = topology_->position(source);
  auto descend = [&](int t, NodeId u, size_t ci) {
    return position_index_.per_tree[t][u][ci].MayIntersectCircle(center,
                                                                 radius);
  };
  auto matches = [&](NodeId u) {
    if (net::Distance(topology_->position(u), center) > radius) return false;
    return accept == nullptr || accept(u);
  };
  return Search(source, descend, matches, stats, search_stats);
}

}  // namespace routing
}  // namespace aspen
