#include <algorithm>
#include <climits>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/topology.h"
#include "net/traffic_stats.h"
#include "routing/multi_tree.h"
#include "routing/summary.h"

namespace aspen {
namespace routing {
namespace {

/// Deterministic static attribute: a small value domain so searches have
/// several matches.
int32_t AttrOf(net::NodeId id) { return (id * 7) % 12; }

class MultiTreeTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    auto topo = net::Topology::Random(100, 7.0, 23);
    ASSERT_TRUE(topo.ok());
    topo_ = std::make_unique<net::Topology>(std::move(*topo));
    MultiTreeOptions opts;
    opts.num_trees = GetParam();
    multi_ = std::make_unique<MultiTree>(topo_.get(), opts);
    IndexedAttribute attr;
    attr.name = "a";
    attr.summary_type = SummaryType::kBloom;
    attr.value_fn = AttrOf;
    auto idx = multi_->IndexAttribute(attr);
    ASSERT_TRUE(idx.ok());
    attr_idx_ = *idx;
  }

  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<MultiTree> multi_;
  int attr_idx_ = -1;
};

TEST_P(MultiTreeTest, BuildsRequestedTrees) {
  EXPECT_EQ(multi_->num_trees(), GetParam());
  EXPECT_EQ(multi_->primary().root(), 0);
  // Roots are distinct.
  std::set<net::NodeId> roots(multi_->roots().begin(), multi_->roots().end());
  EXPECT_EQ(static_cast<int>(roots.size()), GetParam());
}

TEST_P(MultiTreeTest, FurtherRootsAreFar) {
  if (GetParam() < 2) return;
  // The second root maximizes hop distance from the base.
  auto dist = topo_->HopDistancesFrom(0);
  int max_d = *std::max_element(dist.begin(), dist.end());
  EXPECT_EQ(dist[multi_->roots()[1]], max_d);
}

TEST_P(MultiTreeTest, FindMatchesIsCompleteAndExact) {
  // Every node whose attribute equals the probe must be found (conservative
  // summaries guarantee no false negatives), and nothing else.
  for (net::NodeId source : {1, 25, 73}) {
    for (int32_t probe : {0, 5, 11}) {
      auto found = multi_->FindMatches(source, attr_idx_, probe);
      std::set<net::NodeId> found_ids;
      for (const auto& fp : found) found_ids.insert(fp.target);
      for (net::NodeId u = 0; u < topo_->num_nodes(); ++u) {
        bool expect = u != source && AttrOf(u) == probe;
        EXPECT_EQ(found_ids.count(u) > 0, expect)
            << "source " << source << " probe " << probe << " node " << u;
      }
    }
  }
}

TEST_P(MultiTreeTest, PathsAreValidWalks) {
  auto found = multi_->FindMatches(10, attr_idx_, 3);
  ASSERT_FALSE(found.empty());
  for (const auto& fp : found) {
    ASSERT_GE(fp.path.size(), 2u);
    EXPECT_EQ(fp.path.front(), 10);
    EXPECT_EQ(fp.path.back(), fp.target);
    for (size_t i = 0; i + 1 < fp.path.size(); ++i) {
      EXPECT_TRUE(topo_->AreNeighbors(fp.path[i], fp.path[i + 1]));
    }
    EXPECT_LT(fp.tree_index, GetParam());
  }
}

TEST_P(MultiTreeTest, AtMostOnePathPerTargetPerTree) {
  auto found = multi_->FindMatches(4, attr_idx_, 7);
  std::set<std::pair<net::NodeId, int>> seen;
  for (const auto& fp : found) {
    EXPECT_TRUE(seen.insert({fp.target, fp.tree_index}).second);
  }
}

TEST_P(MultiTreeTest, AcceptFilterNarrowsTargets) {
  auto all = multi_->FindMatches(10, attr_idx_, 3);
  auto even_only = multi_->FindMatches(10, attr_idx_, 3,
                                       [](net::NodeId t) { return t % 2 == 0; });
  std::set<net::NodeId> evens;
  for (const auto& fp : even_only) {
    EXPECT_EQ(fp.target % 2, 0);
    evens.insert(fp.target);
  }
  std::set<net::NodeId> all_evens;
  for (const auto& fp : all) {
    if (fp.target % 2 == 0) all_evens.insert(fp.target);
  }
  EXPECT_EQ(evens, all_evens);
}

TEST_P(MultiTreeTest, SearchChargesTraffic) {
  net::TrafficStats stats(topo_->num_nodes());
  SearchStats ss;
  multi_->FindMatches(10, attr_idx_, 3, nullptr, &stats, &ss);
  EXPECT_GT(stats.TotalBytesSent(), 0u);
  EXPECT_GT(ss.exploration_bytes, 0);
  EXPECT_GT(ss.reply_bytes, 0);
  EXPECT_GT(ss.max_hops, 0);
  EXPECT_GT(ss.paths_found, 0);
  EXPECT_EQ(stats.BytesByKind(net::MessageKind::kExploration) +
                stats.BytesByKind(net::MessageKind::kExplorationReply),
            stats.TotalBytesSent());
}

TEST_P(MultiTreeTest, MoreTreesFindAlternatePathsNotWorseBest) {
  // With more trees the best discovered path per target can only improve.
  auto found = multi_->FindMatches(10, attr_idx_, 3);
  std::map<net::NodeId, size_t> best;
  for (const auto& fp : found) {
    auto it = best.find(fp.target);
    if (it == best.end() || fp.path.size() < it->second) {
      best[fp.target] = fp.path.size();
    }
  }
  for (const auto& [target, len] : best) {
    auto shortest = topo_->ShortestPath(10, target);
    EXPECT_GE(len, shortest.size());  // tree paths can't beat BFS
  }
}

TEST_P(MultiTreeTest, RadiusSearchFindsRegionNodes) {
  multi_->IndexPositions();
  const double radius = 40.0;
  for (net::NodeId source : {8, 55}) {
    auto found = multi_->FindWithinRadius(source, radius);
    std::set<net::NodeId> ids;
    for (const auto& fp : found) ids.insert(fp.target);
    for (net::NodeId u = 0; u < topo_->num_nodes(); ++u) {
      bool expect = u != source &&
                    topo_->DistanceBetween(source, u) <= radius;
      EXPECT_EQ(ids.count(u) > 0, expect) << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, MultiTreeTest, ::testing::Values(1, 2, 3));

// ---- exact index equivalence -------------------------------------------------
//
// The oracle is the materialized form of the exact routing tables: every
// node holds a clone of each child's merged ExactSummary, built deepest
// node first, and exploration re-runs the protocol over those summaries
// with every stack item carrying its own path. The subtree-interval index
// must reproduce it decision for decision and byte for byte.

// Exploration wire sizes (see multi_tree.cc).
constexpr int kExploreBaseBytes = 6;
constexpr int kReplyBaseBytes = 4;

using KeyFn = std::function<int32_t(NodeId)>;

struct ReferenceExactIndex {
  /// per_tree[tree][node][child_idx], parallel to ChildrenOf(node).
  std::vector<std::vector<std::vector<std::unique_ptr<ScalarSummary>>>>
      per_tree;
};

ReferenceExactIndex BuildReferenceIndex(const MultiTree& multi,
                                        const KeyFn& key) {
  const int n = multi.topology().num_nodes();
  ReferenceExactIndex ref;
  ref.per_tree.resize(multi.num_trees());
  for (int t = 0; t < multi.num_trees(); ++t) {
    const RoutingTree& tree = multi.tree(t);
    auto& per_node = ref.per_tree[t];
    per_node.resize(n);
    std::vector<std::unique_ptr<ScalarSummary>> subtree(n);
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return tree.DepthOf(a) > tree.DepthOf(b);
    });
    for (NodeId u : order) {
      auto own = std::make_unique<ExactSummary>();
      own->Insert(key(u));
      for (NodeId c : tree.ChildrenOf(u)) {
        per_node[u].push_back(subtree[c]->Clone());
        own->Merge(*subtree[c]);
      }
      subtree[u] = std::move(own);
    }
  }
  return ref;
}

std::vector<FoundPath> ReferenceFindMatches(
    const MultiTree& multi, const ReferenceExactIndex& ref, const KeyFn& key,
    NodeId source, int32_t value, const std::function<bool(NodeId)>& accept,
    net::TrafficStats* stats, SearchStats* ss) {
  std::vector<FoundPath> results;
  auto charge_hop = [&](NodeId from, size_t depth) {
    const int bytes = net::WireFormat::kLinkHeaderBytes + kExploreBaseBytes +
                      static_cast<int>(depth) * net::WireFormat::kPathEntryBytes;
    stats->RecordSend(from, net::MessageKind::kExploration, bytes);
    ss->exploration_bytes += bytes;
    ss->max_hops = std::max(ss->max_hops, static_cast<int>(depth) + 1);
  };
  auto charge_reply = [&](const std::vector<NodeId>& path) {
    const int hops = static_cast<int>(path.size()) - 1;
    const int bytes = net::WireFormat::kLinkHeaderBytes + kReplyBaseBytes +
                      2 * hops * net::WireFormat::kPathEntryBytes;
    for (size_t k = path.size(); k-- > 1;) {
      stats->RecordSend(path[k], net::MessageKind::kExplorationReply, bytes);
      ss->reply_bytes += bytes;
    }
    ss->max_hops = std::max(ss->max_hops, 2 * hops);
    ++ss->paths_found;
  };
  for (int t = 0; t < multi.num_trees(); ++t) {
    const RoutingTree& tree = multi.tree(t);
    const auto& summaries = ref.per_tree[t];
    struct Item {
      NodeId node;
      std::vector<NodeId> path;
    };
    std::vector<Item> stack;
    auto visit = [&](const Item& item) {
      ++ss->nodes_visited;
      if (item.node != source && key(item.node) == value &&
          (accept == nullptr || accept(item.node))) {
        charge_reply(item.path);
        results.push_back(FoundPath{item.node, item.path, t});
      }
    };
    auto push_child = [&](const std::vector<NodeId>& path, NodeId child) {
      charge_hop(path.back(), path.size() - 1);
      std::vector<NodeId> extended = path;
      extended.push_back(child);
      stack.push_back(Item{child, std::move(extended)});
    };
    auto expand_down = [&](const Item& item) {
      const auto& children = tree.ChildrenOf(item.node);
      for (size_t ci = 0; ci < children.size(); ++ci) {
        if (summaries[item.node][ci]->MayContain(value)) {
          push_child(item.path, children[ci]);
        }
      }
    };
    expand_down(Item{source, {source}});
    std::vector<NodeId> up_path{source};
    for (NodeId cur = source; tree.ParentOf(cur) != -1;
         cur = tree.ParentOf(cur)) {
      const NodeId p = tree.ParentOf(cur);
      charge_hop(cur, up_path.size() - 1);
      up_path.push_back(p);
      visit(Item{p, up_path});
      const auto& children = tree.ChildrenOf(p);
      for (size_t ci = 0; ci < children.size(); ++ci) {
        if (children[ci] == cur) continue;
        if (summaries[p][ci]->MayContain(value)) {
          push_child(up_path, children[ci]);
        }
      }
    }
    while (!stack.empty()) {
      Item item = std::move(stack.back());
      stack.pop_back();
      visit(item);
      expand_down(item);
    }
  }
  return results;
}

void ExpectSameTraffic(const net::TrafficStats& a, const net::TrafficStats& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    ASSERT_EQ(a.node(u).bytes_sent, b.node(u).bytes_sent) << "node " << u;
    ASSERT_EQ(a.node(u).messages_sent, b.node(u).messages_sent) << "node " << u;
  }
  for (size_t k = 0; k < static_cast<size_t>(net::MessageKind::kNumKinds);
       ++k) {
    const auto kind = static_cast<net::MessageKind>(k);
    ASSERT_EQ(a.BytesByKind(kind), b.BytesByKind(kind)) << "kind " << k;
    ASSERT_EQ(a.MessagesByKind(kind), b.MessagesByKind(kind)) << "kind " << k;
  }
  ASSERT_EQ(a.QueryBytesSent(0), b.QueryBytesSent(0));
  ASSERT_EQ(a.QueryMessagesSent(0), b.QueryMessagesSent(0));
}

struct ExactCase {
  const char* name;
  net::Topology topo;
};

std::vector<ExactCase> ExactCases() {
  std::vector<ExactCase> cases;
  cases.push_back({"random100", *net::Topology::Random(100, 7.0, 23)});
  cases.push_back({"random200", *net::Topology::Random(200, 7.0, 5)});
  cases.push_back({"random1000", *net::Topology::Random(1000, 7.0, 11)});
  cases.push_back({"grid20x20", *net::Topology::Grid(20, 20)});
  return cases;
}

/// Key layouts: a small domain (every value repeated), unique keys, and
/// mostly-unique keys with some collisions.
std::vector<std::pair<const char*, KeyFn>> KeyFns(int n) {
  return {{"small_domain", [](NodeId u) { return (u * 7) % 12; }},
          {"unique", [](NodeId u) { return 3 * u + 1; }},
          {"collisions",
           [n](NodeId u) { return static_cast<int32_t>((u * 37) % (n / 2)); }}};
}

/// Probes: present values of every layout plus absent ones (below, between
/// and above the present values).
std::vector<int32_t> Probes(int n) {
  return {-5, 0, 1, 3, 4, 5, 11, 2, 3 * (n / 2) + 1, n / 2 - 1, 3 * n + 7,
          1 << 20};
}

TEST(MultiTreeExactIndexTest, DescendDecisionsMatchMaterializedSummaries) {
  for (const ExactCase& c : ExactCases()) {
    const int n = c.topo.num_nodes();
    for (int trees = 1; trees <= 3; ++trees) {
      MultiTreeOptions opts;
      opts.num_trees = trees;
      MultiTree multi(&c.topo, opts);
      for (const auto& [key_name, key] : KeyFns(n)) {
        SCOPED_TRACE(std::string(c.name) + " trees=" + std::to_string(trees) +
                     " keys=" + key_name);
        IndexedAttribute attr;
        attr.name = key_name;
        attr.summary_type = SummaryType::kExact;
        attr.value_fn = key;
        auto idx = multi.IndexAttribute(attr);
        ASSERT_TRUE(idx.ok());
        const ReferenceExactIndex ref = BuildReferenceIndex(multi, key);
        for (int t = 0; t < trees; ++t) {
          for (NodeId u = 0; u < n; ++u) {
            const size_t fanout = multi.tree(t).ChildrenOf(u).size();
            for (size_t ci = 0; ci < fanout; ++ci) {
              for (int32_t probe : Probes(n)) {
                ASSERT_EQ(multi.ChildMayContain(*idx, t, u, ci, probe),
                          ref.per_tree[t][u][ci]->MayContain(probe))
                    << "tree " << t << " node " << u << " child " << ci
                    << " probe " << probe;
              }
            }
          }
        }
      }
    }
  }
}

TEST(MultiTreeExactIndexTest, SearchesMatchMaterializedSummaries) {
  for (const ExactCase& c : ExactCases()) {
    const int n = c.topo.num_nodes();
    const int source_stride = n > 400 ? 13 : 1;
    for (int trees = 1; trees <= 3; ++trees) {
      MultiTreeOptions opts;
      opts.num_trees = trees;
      MultiTree multi(&c.topo, opts);
      for (const auto& [key_name, key] : KeyFns(n)) {
        SCOPED_TRACE(std::string(c.name) + " trees=" + std::to_string(trees) +
                     " keys=" + key_name);
        IndexedAttribute attr;
        attr.name = key_name;
        attr.summary_type = SummaryType::kExact;
        attr.value_fn = key;
        auto idx = multi.IndexAttribute(attr);
        ASSERT_TRUE(idx.ok());
        const ReferenceExactIndex ref = BuildReferenceIndex(multi, key);
        net::TrafficStats got_stats(n), want_stats(n);
        for (NodeId source = 0; source < n; source += source_stride) {
          for (int32_t probe : Probes(n)) {
            // Alternate between no filter and a secondary predicate.
            std::function<bool(NodeId)> accept;
            if ((source + probe) % 2 == 0) {
              accept = [](NodeId t) { return t % 3 != 0; };
            }
            SearchStats got_ss, want_ss;
            const auto got = multi.FindMatches(source, *idx, probe, accept,
                                               &got_stats, &got_ss);
            const auto want = ReferenceFindMatches(
                multi, ref, key, source, probe, accept, &want_stats, &want_ss);
            ASSERT_EQ(got.size(), want.size())
                << "source " << source << " probe " << probe;
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(got[i].target, want[i].target) << i;
              ASSERT_EQ(got[i].path, want[i].path) << i;
              ASSERT_EQ(got[i].tree_index, want[i].tree_index) << i;
            }
            ASSERT_EQ(got_ss.exploration_bytes, want_ss.exploration_bytes);
            ASSERT_EQ(got_ss.reply_bytes, want_ss.reply_bytes);
            ASSERT_EQ(got_ss.max_hops, want_ss.max_hops);
            ASSERT_EQ(got_ss.nodes_visited, want_ss.nodes_visited);
            ASSERT_EQ(got_ss.paths_found, want_ss.paths_found);
          }
        }
        ExpectSameTraffic(got_stats, want_stats);
      }
    }
  }
}

// ---- bounded KMB metric closure -------------------------------------------------
//
// BuildSharedSteinerTree stops each closure BFS at its last terminal. The
// oracle is the unbounded construction it replaced: whole-graph hop
// distances from the source and from every terminal.

net::MulticastRoute ReferenceSteinerTree(const net::Topology& topo,
                                         NodeId source,
                                         const std::vector<NodeId>& targets) {
  net::MulticastRoute route;
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
    if (source_is_target) route.targets.push_back(source);
    return route;
  }
  const std::vector<int> from_source = topo.HopDistancesFrom(source);
  std::vector<std::vector<int>> from_term(steiner.size());
  for (size_t i = 0; i < steiner.size(); ++i) {
    from_term[i] = topo.HopDistancesFrom(steiner[i]);
  }
  const size_t n = steiner.size();
  std::vector<int> best(n, INT_MAX);
  std::vector<int> attach(n, -1);
  std::vector<char> in_tree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const int d = from_source[steiner[i]];
    if (d >= 0) best[i] = d;
  }
  auto attach_id = [&](int a) { return a < 0 ? source : steiner[a]; };
  std::vector<std::pair<int, int>> mst;
  for (size_t round = 0; round < n; ++round) {
    int pick = -1;
    for (size_t i = 0; i < n; ++i) {
      if (in_tree[i] || best[i] == INT_MAX) continue;
      if (pick < 0 || best[i] < best[pick] ||
          (best[i] == best[pick] && steiner[i] < steiner[pick])) {
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;
    in_tree[pick] = 1;
    mst.emplace_back(attach[pick], pick);
    const std::vector<int>& dp = from_term[pick];
    for (size_t i = 0; i < n; ++i) {
      if (in_tree[i]) continue;
      const int d = dp[steiner[i]];
      if (d < 0) continue;
      if (d < best[i] ||
          (d == best[i] && steiner[pick] < attach_id(attach[i]))) {
        best[i] = d;
        attach[i] = pick;
      }
    }
  }
  std::set<std::pair<NodeId, NodeId>> edges;
  for (const auto& [a, t] : mst) {
    const std::vector<NodeId> path =
        topo.ShortestPath(attach_id(a), steiner[t]);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      edges.insert({path[i], path[i + 1]});
      edges.insert({path[i + 1], path[i]});
    }
  }
  std::map<NodeId, std::vector<NodeId>> adj;
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  std::map<NodeId, NodeId> parent;
  std::vector<NodeId> frontier{source};
  parent[source] = source;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId u = frontier[head];
    for (NodeId v : adj[u]) {
      if (parent.find(v) == parent.end()) {
        parent[v] = u;
        frontier.push_back(v);
      }
    }
  }
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (NodeId t : terms) {
    if (t == source) {
      route.targets.push_back(t);
      continue;
    }
    if (parent.find(t) == parent.end()) continue;
    route.targets.push_back(t);
    for (NodeId u = t; u != source; u = parent[u]) {
      tree_edges.insert({parent[u], u});
    }
  }
  route.edges.assign(tree_edges.begin(), tree_edges.end());
  route.Normalize();
  return route;
}

/// Two 6x6 grid blocks far apart, plus two isolated nodes: three kinds of
/// component, so most terminal sets mix reachable and unreachable nodes.
net::Topology DisconnectedTopology() {
  std::vector<net::Point> pts;
  for (double x0 : {0.0, 200.0}) {
    for (int r = 0; r < 6; ++r) {
      for (int c = 0; c < 6; ++c) pts.push_back({x0 + 10.0 * c, 10.0 * r});
    }
  }
  pts.push_back({120.0, 120.0});
  pts.push_back({120.0, 250.0});
  auto topo = net::Topology::FromPositions(std::move(pts), 15.0);
  EXPECT_TRUE(topo.ok());
  EXPECT_FALSE(topo->IsConnected());
  return *std::move(topo);
}

TEST(SharedSteinerTreeTest, BoundedClosureMatchesUnboundedKmb) {
  struct Case {
    const char* name;
    net::Topology topo;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {3ULL, 17ULL}) {
    cases.push_back({"random", *net::Topology::Random(150, 7.0, seed)});
  }
  cases.push_back({"grid", *net::Topology::Grid(12, 12)});
  cases.push_back({"disconnected", DisconnectedTopology()});
  for (const Case& c : cases) {
    const int n = c.topo.num_nodes();
    Rng rng(0x5EED ^ static_cast<uint64_t>(n));
    int unreachable_cases = 0;
    for (int k = 1; k <= 20; ++k) {
      for (int draw = 0; draw < 4; ++draw) {
        const NodeId source = static_cast<NodeId>(rng.UniformInt(n));
        std::vector<NodeId> targets;
        for (int i = 0; i < k; ++i) {
          targets.push_back(static_cast<NodeId>(rng.UniformInt(n)));
        }
        // Every other draw names the source among its targets.
        if (draw % 2 == 1) targets[rng.UniformInt(k)] = source;
        SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k) +
                     " draw=" + std::to_string(draw));
        const net::MulticastRoute want =
            ReferenceSteinerTree(c.topo, source, targets);
        const net::MulticastRoute got =
            BuildSharedSteinerTree(c.topo, source, targets);
        EXPECT_EQ(got.edges, want.edges);
        EXPECT_EQ(got.targets, want.targets);
        std::set<NodeId> distinct(targets.begin(), targets.end());
        if (want.targets.size() < distinct.size()) ++unreachable_cases;
      }
    }
    // Connected topologies reach every target; the disconnected one must
    // exercise the unreachable-terminal path.
    if (c.topo.IsConnected()) {
      EXPECT_EQ(unreachable_cases, 0);
    } else {
      EXPECT_GT(unreachable_cases, 0);
    }
  }
}

}  // namespace
}  // namespace routing
}  // namespace aspen
