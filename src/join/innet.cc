// Innet strategy: multi-tree exploration, cost-based join-node placement
// (Section 3), multi-pair optimization (Section 5), adaptive learning and
// migration (Section 6), and failure recovery (Section 7).

#include <algorithm>
#include <map>
#include <queue>

#include "common/logging.h"
#include "common/sorted_vec.h"
#include "join/executor.h"
#include "join/medium.h"

namespace aspen {
namespace join {

using net::Message;
using net::MessageKind;
using net::NodeId;
using net::RoutingMode;

namespace {

/// Best join-node position on a path plus the at-base alternative.
struct OnPathChoice {
  int index = 0;
  double innet_cost = 0.0;
  double base_cost = 0.0;
  bool base_cheaper() const { return base_cost <= innet_cost; }
};

OnPathChoice BestOnPath(const opt::PairCostInputs& params,
                        const std::vector<NodeId>& path,
                        const std::function<int(NodeId)>& depth_of) {
  ASPEN_CHECK(!path.empty());
  OnPathChoice best;
  best.base_cost =
      opt::BasePairCost(params, depth_of(path.front()), depth_of(path.back()));
  best.innet_cost = 1e300;
  for (size_t i = 0; i < path.size(); ++i) {
    double c = opt::InnetPairCost(params, static_cast<int>(i),
                                  static_cast<int>(path.size() - 1 - i),
                                  depth_of(path[i]));
    if (c < best.innet_cost) {
      best.innet_cost = c;
      best.index = static_cast<int>(i);
    }
  }
  return best;
}

opt::PairCostInputs ToCost(const workload::SelectivityParams& p, int w) {
  opt::PairCostInputs c;
  c.sigma_s = p.sigma_s;
  c.sigma_t = p.sigma_t;
  c.sigma_st = p.sigma_st;
  c.w = w;
  return c;
}

constexpr int kNominationBytes = 6;
constexpr int kCostReportBytes = 6;
constexpr int kDecisionBytes = 4;
constexpr int kHintBytes = 6;
constexpr int kMcastUpdateBytesPerEdge = 4;

}  // namespace

Status JoinExecutor::InitInnet() {
  if (!workload_->analysis().primary.has_value()) {
    // No routable static join clause: the only consistent strategy is a
    // grouped join at the base (Section 2), which the default placements
    // already encode. Depths come from the medium's primary tree, so no
    // exploration substrate is needed.
    return Status::OK();
  }
  // The substrate — trees, beacon floods, and the summary index of the
  // workload's primary join key — is deployment-time state, like the
  // initial routing tree that Naive/Base get for free (Appendix C): the
  // medium builds it once per workload and shares it with every
  // co-resident query, charging none of its traffic. Query-specific
  // initiation — exploration, replies, nominations — is charged below
  // (Table 3's ">= sum Dst").
  ASPEN_ASSIGN_OR_RETURN(multi_, medium_->InnetSubstrate(*workload_, opts_));
  ASPEN_RETURN_NOT_OK(ExplorePairs());
  if (opts_.features.group_opt) RunGroupOpt(/*charge_traffic=*/true);
  if (opts_.features.multicast) BuildMulticastRoutes(/*charge_traffic=*/true);
  // Flow tables for opportunistic snooping (path collapsing); the path
  // nodes that carry one join the footprint here.
  if (opts_.features.path_collapse) {
    for (const auto& pl : placements_) {
      if (pl.path.empty()) continue;
      for (int i = 1; i <= pl.path_index; ++i) {
        EnsureNode(pl.path[i]).AddFlow(pl.pair.s);
      }
      for (int i = pl.path_index;
           i < static_cast<int>(pl.path.size()) - 1; ++i) {
        EnsureNode(pl.path[i]).AddFlow(pl.pair.t);
      }
    }
  }
  return Status::OK();
}

Status JoinExecutor::ExplorePairs() {
  const auto& primary = *workload_->analysis().primary;
  const int w = workload_->join_query().window.size;
  auto depth_of = [this](NodeId id) { return DepthOf(id); };

  for (size_t i = 0; i < producers_.size(); ++i) {
    if (nodes_[i].s_pairs.empty()) continue;
    const NodeId s = producers_[i];
    auto accept = [this, s](NodeId t) {
      return t != s && workload_->StaticPairJoins(s, t);
    };
    routing::SearchStats ss;
    std::vector<routing::FoundPath> found;
    if (primary.region_radius_dm.has_value()) {
      // Positions are decimeters in tuples but meters in the topology; a
      // small slack absorbs the rounding (accept() re-checks exactly).
      double radius_m = *primary.region_radius_dm / 10.0 + 0.1;
      found = multi_->FindWithinRadius(s, radius_m, accept, &net_->stats(),
                                       &ss);
    } else {
      const query::Tuple& st = workload_->statics().tuple(s);
      int32_t probe = primary.probe_expr->Eval(&st, nullptr);
      found = multi_->FindMatches(s, SharedMedium::kJoinKeyAttr, probe,
                                  accept, &net_->stats(), &ss);
    }
    init_latency_ = std::max(init_latency_, ss.max_hops);
    // Keep, per target, the path whose best placement is cheapest.
    for (const auto& fp : found) {
      PairKey key{s, fp.target};
      PairPlacement* pl = MutablePlacement(key);
      ASPEN_CHECK(pl != nullptr);  // accept() is exact
      // A pair subscribed to a co-resident query's placement keeps no
      // placement of its own: the owner's path serves it.
      if (pl->shared_owner >= 0) continue;
      const workload::SelectivityParams pair_params = AssumedFor(key);
      const opt::PairCostInputs assumed = ToCost(pair_params, w);
      OnPathChoice choice = BestOnPath(assumed, fp.path, depth_of);
      bool better = pl->path.empty();
      if (!better) {
        OnPathChoice current = BestOnPath(assumed, pl->path, depth_of);
        better = std::min(choice.innet_cost, choice.base_cost) <
                 std::min(current.innet_cost, current.base_cost);
      }
      if (better) {
        pl->path = fp.path;
        pl->path_index = choice.index;
        pl->join_node = fp.path[choice.index];
        pl->pairwise_at_base = choice.base_cheaper();
        pl->at_base = pl->pairwise_at_base;
        pl->placed_with = pair_params;
      }
    }
  }
  // Nomination: t tells j, and j tells s (footnote 4). Charged along the
  // chosen path segments.
  for (const auto& pl : placements_) {
    if (pl.path.empty()) continue;
    std::vector<NodeId> t_to_j(pl.path.begin() + pl.path_index,
                               pl.path.end());
    std::reverse(t_to_j.begin(), t_to_j.end());
    std::vector<NodeId> j_to_s(pl.path.begin(),
                               pl.path.begin() + pl.path_index + 1);
    std::reverse(j_to_s.begin(), j_to_s.end());
    ChargeAlongPath(t_to_j, kNominationBytes, MessageKind::kNomination);
    ChargeAlongPath(j_to_s, kNominationBytes, MessageKind::kNomination);
  }
  return Status::OK();
}

// ---- group optimization (MPO) -----------------------------------------------

double JoinExecutor::ComputeDeltaCp(
    NodeId member, bool as_s, const workload::SelectivityParams& est) const {
  const int w = workload_->join_query().window.size;
  const NodeState& mnode = Node(member);
  const auto& pair_idxs = as_s ? mnode.s_pairs : mnode.t_pairs;
  if (pair_idxs.empty()) return 0.0;
  // Group the member's pairs by candidate join node.
  std::map<NodeId, opt::ProducerJoinNode> per_join;
  for (int32_t pi : pair_idxs) {
    const PairPlacement& pl = placements_[pi];
    if (pl.path.empty()) continue;
    auto [jit, inserted] =
        per_join.try_emplace(pl.join_node, opt::ProducerJoinNode{});
    if (inserted) {
      jit->second.d_pj = HopsOnPath(pl, as_s);
      jit->second.d_jr = DepthOf(pl.join_node);
      jit->second.n_pairs = 1;
    } else {
      ++jit->second.n_pairs;
    }
  }
  std::vector<opt::ProducerJoinNode> join_nodes;
  join_nodes.reserve(per_join.size());
  for (const auto& [j, pj] : per_join) join_nodes.push_back(pj);
  double sigma_p = as_s ? est.sigma_s : est.sigma_t;
  return opt::GroupDeltaCp(sigma_p, est.sigma_st, w, join_nodes,
                           DepthOf(member));
}

void JoinExecutor::ApplyGroupDecision(const opt::JoinGroup& group,
                                      bool in_network) {
  for (const auto& [s, t] : group.pairs) {
    PairPlacement* pl = MutablePlacement(PairKey{s, t});
    if (pl == nullptr) continue;
    if (pl->failed_over || pl->path.empty()) continue;
    bool new_at_base = in_network ? pl->pairwise_at_base : true;
    if (new_at_base != pl->at_base) {
      NodeId from = pl->at_base ? 0 : pl->join_node;
      NodeId to = new_at_base ? 0 : pl->join_node;
      MoveState(pl->pair, from, to, /*charge=*/true);
      pl->at_base = new_at_base;
      plans_dirty_ = true;
      if (initiated_) ++migrations_;  // adaptive relocation, not setup
    }
  }
}

void JoinExecutor::EnsureGroups() {
  if (!groups_.empty()) return;
  std::vector<std::pair<NodeId, NodeId>> raw;
  raw.reserve(pairs_.size());
  for (const PairKey& key : pairs_) {
    // Pairs subscribed to a co-resident query's placement take no part in
    // group optimization — the owner's decisions serve them.
    const PairPlacement* pl = FindPlacement(key);
    if (pl != nullptr && pl->shared_owner >= 0) continue;
    raw.emplace_back(key.s, key.t);
  }
  groups_ = opt::DiscoverGroups(raw);
  for (size_t g = 0; g < groups_.size(); ++g) {
    for (const auto& [s, t] : groups_[g].pairs) {
      PairPlacement* pl = MutablePlacement(PairKey{s, t});
      if (pl != nullptr) {
        pair_group_[pl - placements_.data()] = static_cast<int32_t>(g);
      }
    }
  }
}

void JoinExecutor::RunGroupOpt(bool charge_traffic) {
  EnsureGroups();
  ++group_decision_seq_;
  for (const auto& group : groups_) DecideGroupFor(group, charge_traffic);
}

void JoinExecutor::DecideGroupFor(const opt::JoinGroup& group,
                                  bool charge_traffic) {
  std::vector<double> deltas;
  auto report = [&](NodeId member, bool as_s) {
    // Members use the estimates their placements were computed with; with
    // learning on these are the learned values.
    workload::SelectivityParams est = opts_.assumed;
    const NodeState& mnode = Node(member);
    const auto& pair_idxs = as_s ? mnode.s_pairs : mnode.t_pairs;
    if (!pair_idxs.empty()) {
      est = placements_[pair_idxs.front()].placed_with;
    }
    deltas.push_back(ComputeDeltaCp(member, as_s, est));
    if (charge_traffic && member != group.coordinator) {
      ChargeAlongPath(primary_tree().TreePath(member, group.coordinator),
                      kCostReportBytes, MessageKind::kCostReport);
    }
  };
  for (NodeId s : group.s_members) report(s, true);
  for (NodeId t : group.t_members) report(t, false);
  bool in_network =
      opt::DecideGroup(deltas) == opt::GroupDecision::kInNetwork;
  if (charge_traffic) {
    for (NodeId m : group.s_members) {
      if (m != group.coordinator) {
        ChargeAlongPath(primary_tree().TreePath(group.coordinator, m),
                        kDecisionBytes, MessageKind::kGroupDecision);
      }
    }
    for (NodeId m : group.t_members) {
      if (m != group.coordinator) {
        ChargeAlongPath(primary_tree().TreePath(group.coordinator, m),
                        kDecisionBytes, MessageKind::kGroupDecision);
      }
    }
  }
  ApplyGroupDecision(group, in_network);
}

// ---- multicast trees ----------------------------------------------------------

void JoinExecutor::RebuildProducerRoute(NodeId p, bool charge_traffic) {
  if (opts_.knobs.tree_mode == common::TreeMode::kShared) {
    RebuildSharedProducerRoute(p, charge_traffic);
    return;
  }
  // Collect the path segments from p to each of its in-network join nodes
  // (both roles), plus any snoop-discovered shortcut links.
  std::set<NodeId> targets;
  std::set<std::pair<NodeId, NodeId>> edges;
  auto add_segment = [&](const std::vector<NodeId>& seg) {
    for (size_t i = 0; i + 1 < seg.size(); ++i) {
      edges.insert({seg[i], seg[i + 1]});
      edges.insert({seg[i + 1], seg[i]});
    }
  };
  auto collect = [&](const std::vector<int32_t>& pair_idxs, bool role_s) {
    std::vector<NodeId> seg;
    for (int32_t pi : pair_idxs) {
      const PairPlacement& pl = placements_[pi];
      if (pl.at_base || pl.path.empty()) continue;
      targets.insert(pl.join_node);
      RoleSegment(pl, role_s, &seg);
      add_segment(seg);
    }
  };
  NodeState& pnode = Node(p);
  collect(pnode.s_pairs, true);
  collect(pnode.t_pairs, false);

  if (targets.empty()) {
    UnrefMcast(pnode.mcast_route);
    pnode.mcast_route = net::kInvalidRoute;
    return;
  }
  for (const auto& [a, b] : pnode.extra_links) {
    edges.insert({a, b});
    edges.insert({b, a});
  }
  // BFS from p over the collected edges; prune to the union of p->target
  // paths.
  std::map<NodeId, std::vector<NodeId>> adj;
  for (const auto& [a, b] : edges) adj[a].push_back(b);
  std::map<NodeId, NodeId> parent;
  std::queue<NodeId> frontier;
  parent[p] = p;
  frontier.push(p);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : adj[u]) {
      if (parent.find(v) == parent.end()) {
        parent[v] = u;
        frontier.push(v);
      }
    }
  }
  net::MulticastRoute route;
  std::set<std::pair<NodeId, NodeId>> tree_edges;
  for (NodeId t : targets) {
    if (parent.find(t) == parent.end()) continue;  // unreachable: stale link
    route.targets.push_back(t);
    for (NodeId u = t; u != p; u = parent[u]) {
      tree_edges.insert({parent[u], u});
    }
  }
  route.edges.assign(tree_edges.begin(), tree_edges.end());

  // 10%-improvement rule (Appendix E): only push an updated tree when it is
  // meaningfully smaller than the one currently cached in the network.
  const bool has_existing = pnode.mcast_route != net::kInvalidRoute;
  size_t old_edges = SIZE_MAX;
  if (has_existing) {
    old_edges = net_->routes().Multicast(pnode.mcast_route).edges.size();
  }
  bool adopt = !has_existing || tree_edges.size() * 10 <= old_edges * 9;
  // A placement change (targets moved) always forces adoption: the cached
  // tree no longer covers the right targets.
  if (!adopt) {
    const auto& old_targets =
        net_->routes().Multicast(pnode.mcast_route).targets;
    // Both sides are sorted unique (`targets` is a std::set).
    if (old_targets.size() != targets.size() ||
        !std::equal(old_targets.begin(), old_targets.end(),
                    targets.begin())) {
      adopt = true;
    }
  }
  if (!adopt) return;
  if (charge_traffic) {
    for (const auto& [u, v] : tree_edges) {
      net_->stats().RecordSend(u, MessageKind::kMulticastUpdate,
                               kMcastUpdateBytesPerEdge +
                                   net::WireFormat::kLinkHeaderBytes,
                               query_id_);
      net_->stats().RecordReceive(v, kMcastUpdateBytesPerEdge +
                                         net::WireFormat::kLinkHeaderBytes);
    }
  }
  // Swap the cached tree's owner reference: ref-then-unref keeps a
  // re-adopted identical tree alive across the swap.
  const net::McastId old_route = pnode.mcast_route;
  pnode.mcast_route = net_->routes().InternMulticast(std::move(route));
  RefMcast(pnode.mcast_route);
  UnrefMcast(old_route);
}

void JoinExecutor::RebuildSharedProducerRoute(NodeId p, bool charge_traffic) {
  // Shared-tree mode: the tree is a pure function of (producer,
  // destination set) — explored path segments and snooped extra links are
  // deliberately ignored so co-resident queries with the same placements
  // converge on byte-identical trees and share one interned McastId.
  std::set<NodeId> tset;
  auto collect = [&](const std::vector<int32_t>& pair_idxs) {
    for (int32_t pi : pair_idxs) {
      const PairPlacement& pl = placements_[pi];
      if (pl.at_base || pl.path.empty()) continue;
      tset.insert(pl.join_node);
    }
  };
  NodeState& pnode = Node(p);
  collect(pnode.s_pairs);
  collect(pnode.t_pairs);
  if (tset.empty()) {
    UnrefMcast(pnode.mcast_route);
    pnode.mcast_route = net::kInvalidRoute;
    return;
  }
  const std::vector<NodeId> targets(tset.begin(), tset.end());
  net::RouteTable& routes = net_->routes();
  if (pnode.mcast_route != net::kInvalidRoute &&
      routes.Multicast(pnode.mcast_route).targets == targets) {
    return;  // destination set unchanged — the cached tree stands
  }
  const net::McastId old_route = pnode.mcast_route;
  net::McastId id = routes.FindSharedMulticast(p, targets);
  if (id != net::kInvalidRoute) {
    // Adopt a co-resident query's tree: it is already installed in the
    // network, so adoption costs no construction and no update traffic.
    pnode.mcast_route = id;
    RefMcast(id);
    UnrefMcast(old_route);
    return;
  }
  net::MulticastRoute route =
      routing::BuildSharedSteinerTree(net_->topology(), p, targets);
  if (charge_traffic) {
    for (const auto& [u, v] : route.edges) {
      net_->stats().RecordSend(u, MessageKind::kMulticastUpdate,
                               kMcastUpdateBytesPerEdge +
                                   net::WireFormat::kLinkHeaderBytes,
                               query_id_);
      net_->stats().RecordReceive(v, kMcastUpdateBytesPerEdge +
                                         net::WireFormat::kLinkHeaderBytes);
    }
  }
  pnode.mcast_route = routes.InternSharedMulticast(p, std::move(route));
  RefMcast(pnode.mcast_route);
  UnrefMcast(old_route);
}

void JoinExecutor::BuildMulticastRoutes(bool charge_traffic) {
  // Producers in ascending id: the order trees are interned and released.
  for (size_t i = 0; i < producers_.size(); ++i) {
    if (nodes_[i].s_pairs.empty() && nodes_[i].t_pairs.empty()) continue;
    RebuildProducerRoute(producers_[i], charge_traffic);
  }
}

// ---- snooping / path collapse --------------------------------------------------

void JoinExecutor::OnSnoop(const Message& msg, NodeId snooper, NodeId from,
                           NodeId to) {
  // Snoop expansion happens in the exchange phase (kSnoopTx effects).
  common::SequentialPhaseScope seq;
  if (msg.kind != MessageKind::kData || !opts_.features.path_collapse ||
      !opts_.features.multicast) {
    return;
  }
  const DataPayload* data = data_pool_->Get(msg.payload);
  if (data == nullptr) return;
  NodeId p = data->producer;
  if (snooper == p || from == p || to == p) return;
  // Only footprint nodes carry flow tables.
  const NodeState* snode = FindNode(snooper);
  const NodeState* fnode = FindNode(from);
  if (snode == nullptr || !snode->FlowsThrough(p)) return;
  if (fnode == nullptr || !fnode->FlowsThrough(p)) return;
  auto link = std::minmax(snooper, from);
  if (!Node(p).extra_links.insert({link.first, link.second}).second) return;
  // Notify the producer (Algorithm 2's optimization tuple).
  ChargeAlongPath(primary_tree().TreePath(snooper, p), kHintBytes,
                  MessageKind::kCollapseHint);
  RebuildProducerRoute(p, /*charge_traffic=*/true);
}

// ---- re-optimization & migration (Section 6) -----------------------------------

void JoinExecutor::MoveState(const PairKey& pair, NodeId from, NodeId to,
                             bool charge) {
  if (from == to) return;
  // The new site joins the footprint even when no state moves: the next
  // arrival for the pair probes there.
  NodeState& dst = EnsureNode(to);
  NodeState* src = FindNode(from);
  if (src == nullptr) return;  // never held state
  std::optional<PairState> moving = src->TakeState(pair);
  if (!moving.has_value()) return;  // nothing buffered yet
  if (src->states.empty()) {
    common::EraseSorted(&active_sites_, from);
  }
  if (charge) {
    int tuples = moving->s_window.size() + moving->t_window.size();
    int bytes = 4 + tuples * workload_->DataBytes();
    ChargeAlongPath(primary_tree().TreePath(from, to), bytes,
                    MessageKind::kWindowTransfer);
  }
  TouchSite(to);
  dst.AdoptState(std::move(*moving));
}

void JoinExecutor::MigratePair(PairPlacement* pl, bool new_at_base,
                               NodeId new_join, int new_index) {
  NodeId from = pl->at_base ? 0 : pl->join_node;
  NodeId to = new_at_base ? 0 : new_join;
  if (from != to) {
    MoveState(pl->pair, from, to, /*charge=*/true);
    // Producers must learn the new join point (new path indices).
    if (!pl->path.empty()) {
      std::vector<NodeId> to_s(pl->path.begin(),
                               pl->path.begin() + std::max(new_index, 0) + 1);
      std::reverse(to_s.begin(), to_s.end());
      ChargeAlongPath(to_s, 4, MessageKind::kControl);
      std::vector<NodeId> to_t(
          pl->path.begin() + std::max(new_index, 0), pl->path.end());
      ChargeAlongPath(to_t, 4, MessageKind::kControl);
    }
    ++migrations_;
  }
  pl->at_base = new_at_base;
  if (!new_at_base) {
    pl->join_node = new_join;
    pl->path_index = new_index;
  }
  plans_dirty_ = true;
}

JoinExecutor::PlannedMigration* JoinExecutor::FindMigration(
    const PairKey& pair) {
  for (PlannedMigration& m : planned_migrations_) {
    if (m.pair == pair) return &m;
  }
  return nullptr;
}

void JoinExecutor::RunReopt() {
  const int w = workload_->join_query().window.size;
  auto depth_of = [this](NodeId id) { return DepthOf(id); };
  // Collect the diverged placements first: moving state (an instant
  // migration, the MPO round) mutates the per-node tables ForEachState
  // walks.
  reopt_diverged_.clear();
  ForEachState([&](NodeId loc, PairState& st) {
    const PairPlacement* pl = FindPlacement(st.pair);
    if (pl == nullptr) return;
    if (pl->failed_over || pl->path.empty()) return;
    if ((pl->at_base ? 0 : pl->join_node) != loc) return;  // stale copy
    if (FindMigration(st.pair) != nullptr) return;  // already relocating
    workload::SelectivityParams est =
        st.estimator.Estimate(w, pl->placed_with);
    if (reopt_.ShouldReplan(est, pl->placed_with)) {
      reopt_diverged_.push_back({st.pair, est});
    }
  });
  const bool instant =
      opts_.knobs.migration == common::Migration::kInstant;
  reopt_groups_.clear();
  bool any_moved = false;
  for (const FreshEstimate& f : reopt_diverged_) {
    PairPlacement* pl = MutablePlacement(f.pair);
    const opt::PairCostInputs est_cost = ToCost(f.est, w);
    OnPathChoice choice = BestOnPath(est_cost, pl->path, depth_of);
    double current_cost =
        pl->at_base
            ? choice.base_cost
            : opt::InnetPairCost(
                  est_cost, pl->path_index,
                  static_cast<int>(pl->path.size()) - 1 - pl->path_index,
                  DepthOf(pl->join_node));
    double best_cost = std::min(choice.innet_cost, choice.base_cost);
    pl->placed_with = f.est;
    // Hysteresis: relocating pays a window transfer and producer
    // notifications, so only move for a meaningful (>= 10%) modeled
    // improvement over staying put under the fresh estimates.
    if (best_cost > current_cost * 0.9) continue;
    pl->pairwise_at_base = choice.base_cheaper();
    const NodeId new_join = pl->path[choice.index];
    const int32_t g = pair_group_[pl - placements_.data()];
    if (opts_.features.group_opt && g >= 0) {
      // Grouped pairs reconcile at_base through the MPO coordinator round
      // below. An at-base pair only records its new on-path site; an
      // in-network one follows it at once.
      if (pl->at_base) {
        pl->join_node = new_join;
        pl->path_index = choice.index;
      } else {
        const NodeId old_join = pl->join_node;
        MigratePair(pl, /*new_at_base=*/false, new_join, choice.index);
        if (pl->join_node != old_join) any_moved = true;
      }
      common::InsertSortedUnique(&reopt_groups_, g);
      continue;
    }
    const NodeId from = pl->at_base ? 0 : pl->join_node;
    const NodeId to = pl->pairwise_at_base ? 0 : new_join;
    if (instant || from == to) {
      // An instant move, or a replan that keeps the pair at its current
      // site, which needs no relocation protocol.
      MigratePair(pl, pl->pairwise_at_base, new_join, choice.index);
      if (from != to) any_moved = true;
      continue;
    }
    // Phase 1 (announce): both producers learn the upcoming join point —
    // the same 4-byte notifications an instant migration charges — and the
    // transfer route is interned and referenced now, so it survives until
    // the window state has been shipped and flushed. The placement itself
    // does not flip yet: data keeps flowing to the old site until the
    // transfer phase, so no cycle is ever served by neither site.
    std::vector<NodeId> to_s(pl->path.begin(),
                             pl->path.begin() + choice.index + 1);
    std::reverse(to_s.begin(), to_s.end());
    ChargeAlongPath(to_s, kDecisionBytes, MessageKind::kControl);
    std::vector<NodeId> to_t(pl->path.begin() + choice.index,
                             pl->path.end());
    ChargeAlongPath(to_t, kDecisionBytes, MessageKind::kControl);
    net::RouteId route =
        net_->routes().InternPath(primary_tree().TreePath(from, to));
    RefRoute(route);
    PlannedMigration m;
    m.pair = f.pair;
    m.new_at_base = pl->pairwise_at_base;
    m.new_join = new_join;
    m.new_index = choice.index;
    m.transfer_route = route;
    m.phase = 0;
    planned_migrations_.push_back(m);
    reopt_.RecordPlanned();
  }
  if (!reopt_groups_.empty()) {
    // Re-decide only the groups whose members' estimates changed; a full
    // network-wide re-optimization would charge every group's reports.
    for (int32_t g : reopt_groups_) {
      DecideGroupFor(groups_[g], /*charge_traffic=*/true);
    }
    any_moved = true;
  }
  if (any_moved && opts_.features.multicast) {
    BuildMulticastRoutes(/*charge_traffic=*/true);
  }
}

void JoinExecutor::AdvancePlannedMigrations() {
  if (planned_migrations_.empty()) return;
  size_t kept = 0;
  bool flipped = false;
  for (size_t i = 0; i < planned_migrations_.size(); ++i) {
    PlannedMigration m = planned_migrations_[i];
    bool keep;
    if (m.phase == 0) {
      keep = StartMigrationTransfer(&m);
      flipped |= keep;
    } else {
      // Phase 3 (complete): the transfer message was delivered — and its
      // windows applied at the new site — during the previous transmit
      // phase, before any data probe of that cycle's deliver phase (or the
      // drop handler degraded it; either way the state is in place).
      // Release the transfer route to the epoch GC and count the move.
      UnrefRoute(m.transfer_route);
      reopt_.RecordCompleted();
      ++migrations_;
      keep = false;
    }
    if (keep) planned_migrations_[kept++] = m;
  }
  planned_migrations_.resize(kept);
  // A flipped placement changes its producers' destination sets, and
  // multicast sends ride the cached trees, not the send plans.
  if (flipped && opts_.features.multicast) {
    BuildMulticastRoutes(/*charge_traffic=*/true);
  }
}

bool JoinExecutor::StartMigrationTransfer(PlannedMigration* m) {
  PairPlacement* pl = MutablePlacement(m->pair);
  const NodeId to = m->new_at_base ? 0 : m->new_join;
  if (pl == nullptr || pl->failed_over || net_->IsFailed(to)) {
    // The pair failed over (or the chosen site died) between announce and
    // transfer: abandon the relocation. The announced plan never activated,
    // so nothing needs undoing beyond the route reference.
    UnrefRoute(m->transfer_route);
    reopt_.RecordAborted();
    return false;
  }
  const NodeId from = pl->at_base ? 0 : pl->join_node;
  if (from == to) {  // concurrent adaptation already landed us here
    UnrefRoute(m->transfer_route);
    reopt_.RecordAborted();
    return false;
  }
  // Phase 2 (transfer): the pair's state leaves the old site now; its
  // window contents travel as a real kWindowTransfer along the announced
  // route and are applied at the new site on delivery — which precedes any
  // data probe, because transfers apply at delivery time while data defers
  // to the deliver phase. The placement flips here and the send plans flip
  // atomically at the next sample begin (plans_dirty_), releasing the old
  // routes' references to the epoch GC.
  NodeState& dst = EnsureNode(to);
  NodeState& src = Node(from);
  std::optional<PairState> moving = src.TakeState(m->pair);
  if (moving.has_value()) {
    if (src.states.empty()) {
      common::EraseSorted(&active_sites_, from);
    }
    net::PayloadHandle h = window_pool_->Allocate();
    WindowTransferPayload* wt = window_pool_->Get(h);
    wt->pair = m->pair;
    const query::JoinWindow& sw = moving->s_window;
    const query::JoinWindow& tw = moving->t_window;
    wt->s_window.resize(sw.size());
    wt->t_window.resize(tw.size());
    // detlint: steady-state begin
    // Transfer serialization: oldest-first, so the receiver's Push replays
    // the window in insertion order; copies recycle pooled-slot capacity.
    for (int i = 0; i < sw.size(); ++i) wt->s_window[i] = sw.entry(i).tuple;
    for (int i = 0; i < tw.size(); ++i) wt->t_window[i] = tw.entry(i).tuple;
    // detlint: steady-state end
    const int tuples = sw.size() + tw.size();
    Message msg;
    msg.kind = MessageKind::kWindowTransfer;
    msg.mode = RoutingMode::kSourcePath;
    msg.origin = from;
    msg.dest = to;
    msg.route = m->transfer_route;
    msg.size_bytes = 4 + tuples * workload_->DataBytes();
    msg.payload = h;
    (void)SubmitToNet(msg);
    // The moved state's windows restart empty at the new site (the in-
    // flight transfer refills them); the estimator's counters move with it,
    // so learning continuity survives the relocation.
    moving->s_window.Clear();
    moving->t_window.Clear();
    TouchSite(to);
    dst.AdoptState(std::move(*moving));
  }
  pl->at_base = m->new_at_base;
  if (!m->new_at_base) {
    pl->join_node = m->new_join;
    pl->path_index = m->new_index;
  }
  plans_dirty_ = true;
  m->phase = 1;
  return true;
}

// ---- failure recovery (Section 7) ----------------------------------------------

void JoinExecutor::SendWindowReplay(const PairKey& pair, NodeId producer,
                                    bool as_s) {
  // Forward the producer's last w tuples so the base can reconstruct its
  // side of the join window.
  const RecentRing& recent = Node(producer).recent_sent[as_s];
  net::PayloadHandle h = window_pool_->Allocate();
  WindowTransferPayload* wt = window_pool_->Get(h);
  wt->pair = pair;
  wt->s_window.clear();
  wt->t_window.clear();
  auto& dst = as_s ? wt->s_window : wt->t_window;
  dst.resize(recent.size());
  for (int i = 0; i < recent.size(); ++i) dst[i] = recent.at(i);
  int tuples = static_cast<int>(wt->s_window.size() + wt->t_window.size());
  Message msg;
  msg.kind = MessageKind::kWindowTransfer;
  msg.mode = RoutingMode::kTreeToRoot;
  msg.origin = producer;
  msg.dest = 0;
  msg.size_bytes = 4 + tuples * workload_->DataBytes();
  msg.payload = h;
  (void)SubmitToNet(msg);
}

void JoinExecutor::FailoverPairToBase(const PairKey& pair) {
  PairPlacement* pl = MutablePlacement(pair);
  if (pl == nullptr) return;
  if (pl->failed_over) return;   // already handled (both replays started)
  if (pl->at_base) return;       // was never in-network: nothing to fail over
  pl->at_base = true;
  pl->failed_over = true;
  plans_dirty_ = true;
  ++failovers_;
  // Both producers replay their buffered windows — the base needs both
  // sides to reconstruct the join, and failover knowledge is instantly
  // global here (the detecting producer's notification is not separately
  // modeled, matching how placement decisions propagate elsewhere).
  for (bool as_s : {true, false}) {
    NodeId producer = as_s ? pair.s : pair.t;
    if (net_->IsFailed(producer)) {
      // Producer is down (churn): ship its window once it recovers.
      pending_replays_.push_back({pair, as_s});
      continue;
    }
    SendWindowReplay(pair, producer, as_s);
    if (opts_.features.multicast) {
      RebuildProducerRoute(producer, /*charge_traffic=*/true);
    }
  }
}

void JoinExecutor::RetryPendingReplays() {
  if (pending_replays_.empty()) return;
  net::TrafficStats::QueryScope scope(&net_->stats(), query_id_);
  // A dropped retry re-queues itself via OnDrop during the next transmit
  // phase, so the replay keeps probing (one attempt per sampling cycle,
  // repair-style) until the route to the base heals.
  std::vector<std::pair<PairKey, bool>> retrying;
  retrying.swap(pending_replays_);
  for (const auto& [pair, as_s] : retrying) {
    NodeId producer = as_s ? pair.s : pair.t;
    if (net_->IsFailed(producer)) {
      // Producer itself is down (churn): its buffer survives in NodeState,
      // so keep the replay pending until the producer comes back.
      pending_replays_.push_back({pair, as_s});
      continue;
    }
    SendWindowReplay(pair, producer, as_s);
  }
}

void JoinExecutor::OnDrop(const Message& msg, NodeId at, NodeId next) {
  // Drop handlers fire from the exchange phase's canonical effect replay.
  common::SequentialPhaseScope seq;
  (void)at;
  (void)next;
  if (msg.kind == MessageKind::kWindowTransfer) {
    const WindowTransferPayload* wt = window_pool_->Get(msg.payload);
    if (wt == nullptr) return;
    // A planned-migration transfer (origin = the old join site) that died
    // en route: apply the windows directly at the new site so no buffered
    // tuple is lost — the radio hop degrades to state teleportation, which
    // keeps the outcome deterministic (the state is identical to a
    // successful delivery; only the per-link traffic differs, and the drop
    // itself is already part of the charged record).
    for (const PlannedMigration& m : planned_migrations_) {
      if (m.phase == 1 && m.pair == wt->pair) {
        PairState& st = StateAt(m.new_at_base ? 0 : m.new_join, wt->pair);
        for (const auto& t : wt->s_window) {
          st.s_window.Push(t, t[query::kAttrSeq]);
        }
        for (const auto& t : wt->t_window) {
          st.t_window.Push(t, t[query::kAttrSeq]);
        }
        return;
      }
    }
    // Otherwise a failover replay died en route to the base (the dead join
    // node, or churn, also severed the producer's tree path). Queue a retry
    // for the next sample phase rather than giving up the buffered window.
    bool as_s = msg.origin == wt->pair.s;
    std::pair<PairKey, bool> key{wt->pair, as_s};
    for (const auto& pending : pending_replays_) {
      if (pending.first == key.first && pending.second == key.second) return;
    }
    pending_replays_.push_back(key);
    return;
  }
  if (msg.kind != MessageKind::kData) return;
  const DataPayload* data = data_pool_->Get(msg.payload);
  if (data == nullptr) return;
  NodeId j = msg.dest;
  if (j < 0 || !net_->IsFailed(j)) return;  // congestion loss, not death
  net::TrafficStats::QueryScope scope(&net_->stats(), query_id_);
  NodeId p = data->producer;
  auto fail_role = [&](const std::vector<int32_t>& pair_idxs) {
    for (int32_t pi : pair_idxs) {
      const PairPlacement& pl = placements_[pi];
      if (!pl.at_base && pl.join_node == j) {
        FailoverPairToBase(pl.pair);
      }
    }
  };
  if (data->as_s) fail_role(Node(p).s_pairs);
  if (data->as_t) fail_role(Node(p).t_pairs);
}

}  // namespace join
}  // namespace aspen
