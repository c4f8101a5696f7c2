#include "join/executor.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "common/logging.h"
#include "join/medium.h"

namespace aspen {
namespace join {

using net::Message;
using net::MessageKind;
using net::NodeId;
using net::RoutingMode;
using query::Tuple;

std::string AlgorithmName(Algorithm algo, const InnetFeatures& f) {
  switch (algo) {
    case Algorithm::kNaive:
      return "Naive";
    case Algorithm::kBase:
      return "Base";
    case Algorithm::kYang07:
      return "Yang+07";
    case Algorithm::kGht:
      return "GHT";
    case Algorithm::kInnet: {
      std::string name = "Innet";
      std::string suffix;
      if (f.combining) suffix += 'c';
      if (f.multicast) suffix += 'm';
      if (f.path_collapse) suffix += 'p';
      if (f.group_opt) suffix += 'g';
      if (!suffix.empty()) name += "-" + suffix;
      return name;
    }
  }
  return "?";
}

JoinExecutor::JoinExecutor(const workload::Workload* workload,
                           ExecutorOptions options, SharedMedium* medium,
                           int query_id)
    : workload_(workload),
      opts_(options),
      medium_(medium),
      net_(&medium->network()),
      query_id_(query_id) {
  ASPEN_CHECK(&net_->topology() == &workload->topology());
  scratch_.resize(medium->scheduler()->num_shards());
  reopt_ = adapt::ReoptController(opts_.knobs.reopt_interval,
                                  opts_.knobs.reopt_threshold,
                                  opts_.knobs.counter_reset_interval);
  data_pool_ = net_->payloads().GetOrCreate<DataPayload>(kPayloadTagData);
  result_pool_ =
      net_->payloads().GetOrCreate<ResultPayload>(kPayloadTagResult);
  window_pool_ = net_->payloads().GetOrCreate<WindowTransferPayload>(
      kPayloadTagWindowTransfer);
}

JoinExecutor::~JoinExecutor() { (void)Shutdown(); }

Status JoinExecutor::Shutdown() {
  if (shutdown_) return Status::OK();
  // Teardown runs strictly between cycles (RemoveQuery, destruction).
  common::SequentialPhaseScope seq;
  shutdown_ = true;
  // Buffered arrivals each own one pooled-payload reference; drop them.
  arrivals_.ForEach([&](int32_t, std::vector<Arrival>& items) {
    for (const Arrival& a : items) net_->payloads().Release(a.data);
  });
  arrivals_.Clear();
  pending_replays_.clear();
  // Release every interned-route reference this query holds. The routes
  // themselves are reclaimed by the data plane's epoch-safe sweep
  // (RouteTable::SweepRetired) once nothing references them and no frame
  // is in flight. Only producers hold plans and trees, and they lead the
  // footprint in ascending id, so the releases keep node order.
  for (NodeState& node : nodes_) {
    for (SendPlanEntry& e : node.plan) {
      UnrefRoute(e.route_s);
      UnrefRoute(e.route_t);
    }
    node.plan.clear();
    node.plan_base_s = false;
    node.plan_base_t = false;
    UnrefMcast(node.mcast_route);
    node.mcast_route = net::kInvalidRoute;
    // Flush the join windows and failover replay buffers held here.
    node.states.clear();
    node.recent_sent[0].Clear();
    node.recent_sent[1].Clear();
  }
  for (PairPlacement& pl : placements_) {
    UnrefRoute(pl.route_from_root);
    pl.route_from_root = net::kInvalidRoute;
  }
  // Abandon in-flight planned migrations, releasing their transfer-route
  // references so the routes retire with everything else.
  for (PlannedMigration& m : planned_migrations_) UnrefRoute(m.transfer_route);
  planned_migrations_.clear();
  active_sites_.clear();
  plans_dirty_ = false;
  return Status::OK();
}

void JoinExecutor::RefRoute(net::RouteId id) {
  if (id != net::kInvalidRoute) net_->routes().AddPathRef(id);
}

void JoinExecutor::UnrefRoute(net::RouteId id) {
  if (id != net::kInvalidRoute) net_->routes().ReleasePathRef(id);
}

void JoinExecutor::RefMcast(net::McastId id) {
  if (id != net::kInvalidRoute) net_->routes().AddMulticastRef(id);
}

void JoinExecutor::UnrefMcast(net::McastId id) {
  if (id != net::kInvalidRoute) net_->routes().ReleaseMulticastRef(id);
}

Result<uint64_t> JoinExecutor::SubmitToNet(Message msg) {
  msg.query_id = query_id_;
  return net_->Submit(std::move(msg));
}

Result<uint64_t> JoinExecutor::SubmitMcastToNet(Message msg,
                                                net::McastId route) {
  msg.query_id = query_id_;
  return net_->SubmitMulticast(msg, route);
}

const routing::RoutingTree& JoinExecutor::primary_tree() const {
  return medium_->primary_tree();
}

int JoinExecutor::DepthOf(NodeId id) const {
  return primary_tree().DepthOf(id);
}

opt::PairCostInputs JoinExecutor::AssumedCost() const {
  opt::PairCostInputs c;
  c.sigma_s = opts_.assumed.sigma_s;
  c.sigma_t = opts_.assumed.sigma_t;
  c.sigma_st = opts_.assumed.sigma_st;
  c.w = workload_->join_query().window.size;
  return c;
}

workload::SelectivityParams JoinExecutor::AssumedFor(
    const PairKey& pair) const {
  if (!opts_.oracle) return opts_.assumed;
  const auto& sp = workload_->ParamsAt(pair.s, 0);
  const auto& tp = workload_->ParamsAt(pair.t, 0);
  workload::SelectivityParams out;
  out.sigma_s = sp.sigma_s;
  out.sigma_t = tp.sigma_t;
  // With different u domains, Prob[u_s = u_t] ~ 1/max(domain) — the smaller
  // of the two per-side join selectivities.
  out.sigma_st = std::min(sp.sigma_st, tp.sigma_st);
  return out;
}

void JoinExecutor::ChargeAlongPath(const std::vector<NodeId>& path, int bytes,
                                   MessageKind kind) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    net_->stats().RecordSend(path[i], kind,
                             bytes + net::WireFormat::kLinkHeaderBytes,
                             query_id_);
    net_->stats().RecordReceive(path[i + 1],
                                bytes + net::WireFormat::kLinkHeaderBytes);
  }
}

int JoinExecutor::HopsOnPath(const PairPlacement& p, bool from_s) {
  if (p.path_index < 0) return 0;
  return from_s ? p.path_index
                : static_cast<int>(p.path.size()) - 1 - p.path_index;
}

void JoinExecutor::RoleSegment(const PairPlacement& pl, bool role_s,
                               std::vector<net::NodeId>* seg) {
  if (role_s) {
    seg->assign(pl.path.begin(), pl.path.begin() + pl.path_index + 1);
  } else {
    seg->assign(pl.path.begin() + pl.path_index, pl.path.end());
    std::reverse(seg->begin(), seg->end());
  }
}

JoinExecutor::PairPlacement* JoinExecutor::MutablePlacement(
    const PairKey& pair) {
  auto it = std::lower_bound(placements_.begin(), placements_.end(), pair,
                             [](const PairPlacement& pl, const PairKey& key) {
                               return pl.pair < key;
                             });
  if (it == placements_.end() || !(it->pair == pair)) return nullptr;
  return &*it;
}

const JoinExecutor::PairPlacement* JoinExecutor::FindPlacement(
    const PairKey& pair) const {
  return const_cast<JoinExecutor*>(this)->MutablePlacement(pair);
}

// ---- initiation -------------------------------------------------------------

Status JoinExecutor::InitCommon() {
  s_nodes_ = workload_->SNodes();
  t_nodes_ = workload_->TNodes();
  const bool naive = opts_.algorithm == Algorithm::kNaive;
  auto raw_pairs = workload_->AllJoinPairs();
  // The footprint starts as the producers, in ascending id, then the base.
  // Naive's producers are every eligible node (it samples by eligibility,
  // not by pair); everyone else's are the endpoints of its pairs —
  // subscribed ones included, so a promotion never adds a producer.
  producers_.clear();
  if (naive) {
    producers_.reserve(s_nodes_.size() + t_nodes_.size());
    std::set_union(s_nodes_.begin(), s_nodes_.end(), t_nodes_.begin(),
                   t_nodes_.end(), std::back_inserter(producers_));
  } else {
    producers_.reserve(2 * raw_pairs.size());
    for (const auto& [s, t] : raw_pairs) {
      producers_.push_back(s);
      producers_.push_back(t);
    }
    std::sort(producers_.begin(), producers_.end());
    producers_.erase(std::unique(producers_.begin(), producers_.end()),
                     producers_.end());
  }
  slot_of_.assign(workload_->topology().num_nodes(), -1);
  nodes_.clear();
  for (NodeId p : producers_) EnsureNode(p);
  // The base is always in the footprint: a failover flips a pair to it from
  // the drop handler, which may not add a slot.
  EnsureNode(0);
  arrivals_.Reset(static_cast<int>(producers_.size()));
  pairs_.clear();
  placements_.clear();
  placements_.reserve(raw_pairs.size());
  for (const auto& [s, t] : raw_pairs) {
    PairKey key{s, t};
    pairs_.push_back(key);
    PairPlacement pl;
    pl.pair = key;
    pl.at_base = true;
    pl.join_node = 0;
    pl.placed_with = opts_.assumed;
    placements_.push_back(std::move(pl));
  }
  std::sort(placements_.begin(), placements_.end(),
            [](const PairPlacement& a, const PairPlacement& b) {
              return a.pair < b.pair;
            });
  // Per-node pair lists hold placement indices, in workload pair order.
  for (const PairKey& key : pairs_) {
    int32_t idx = static_cast<int32_t>(MutablePlacement(key) -
                                       placements_.data());
    Node(key.s).s_pairs.push_back(idx);
    Node(key.t).t_pairs.push_back(idx);
  }
  pair_group_.assign(placements_.size(), -1);
  // Warm every producer's last-w rings up front: ring slots allocate their
  // tuple buffer on first use, and with a short warmup that first-touch
  // tail would otherwise land inside an audited measured block.
  const int w = workload_->join_query().window.size;
  for (size_t i = 0; i < producers_.size(); ++i) {
    const NodeId p = producers_[i];
    NodeState& node = nodes_[i];
    const bool s_role = naive ? workload_->SEligible(p) : !node.s_pairs.empty();
    const bool t_role = naive ? workload_->TEligible(p) : !node.t_pairs.empty();
    if (s_role) node.recent_sent[1].Warm(w, query::kNumAttrs);
    if (t_role) node.recent_sent[0].Warm(w, query::kNumAttrs);
  }
  return Status::OK();
}

Status JoinExecutor::Initiate() {
  if (initiated_) {
    return Status::FailedPrecondition("Initiate called twice");
  }
  // Initiation runs before any cycle; nothing is concurrent yet.
  common::SequentialPhaseScope seq;
  // Attribute computed-plane initiation traffic (exploration inside
  // MultiTree, nominations) to this query.
  net::TrafficStats::QueryScope scope(&net_->stats(), query_id_);
  ASPEN_RETURN_NOT_OK(InitCommon());
  // Cross-query placement sharing: claim identical placed pairs from
  // co-resident queries before the per-algorithm init spends exploration
  // or placement work on them. Naive has no placements to share (its
  // producer roles come from workload statics, not the pair lists).
  if (opts_.knobs.tree_mode == common::TreeMode::kShared &&
      opts_.algorithm != Algorithm::kNaive) {
    medium_->ClaimPairs(this);
  }
  Status st;
  switch (opts_.algorithm) {
    case Algorithm::kNaive:
      st = InitNaive();
      break;
    case Algorithm::kBase:
      st = InitBase();
      break;
    case Algorithm::kYang07:
      st = InitYang07();
      break;
    case Algorithm::kGht:
      st = InitGht();
      break;
    case Algorithm::kInnet:
      st = InitInnet();
      break;
  }
  ASPEN_RETURN_NOT_OK(st);
  if (reopt_.enabled()) {
    // Re-optimization passes run in the steady state: pre-size the pass
    // scratch and the in-flight protocol table so neither grows later.
    reopt_diverged_.reserve(placements_.size());
    reopt_groups_.reserve(groups_.size());
    planned_migrations_.reserve(placements_.size());
  }
  // Pre-grow the payload slabs to the steady-state in-flight high-water
  // (every producer can have a data message in flight, every pair a result)
  // with their tuple buffers warmed, so the cycle loop's pools never
  // allocate. The reserve is a floor, not a cap — an unusually deep
  // in-flight tail still grows the slab, which the benches' allocation
  // audits would surface.
  data_pool_->Reserve(s_nodes_.size() + t_nodes_.size(), [](DataPayload& d) {
    d.tuple.resize(query::kNumAttrs);
  });
  result_pool_->Reserve(pairs_.size(), [](ResultPayload&) {});
  // Every pair's join state exists from placement time — the join node
  // learned its pairs during nomination — so materialize it now with its
  // window rings at full capacity. Leaving creation to the first arrival
  // made a pair that first fires late allocate mid-run, which the audits
  // flag. Placements are pair-sorted, so site registration order (and with
  // it ForEachState's iteration order) is deterministic.
  for (const PairPlacement& pl : placements_) {
    if (pl.shared_owner >= 0) continue;  // served by the sharing owner
    const NodeId site = pl.at_base ? 0 : pl.join_node;
    EnsureNode(site);
    PairState& pst = StateAt(site, pl.pair);
    pst.s_window.Warm(query::kNumAttrs);
    pst.t_window.Warm(query::kNumAttrs);
  }
  // Arrival boxes peak at one entry per role destination per in-flight
  // sample cycle; two cycles of slack covers multi-hop deliveries that
  // straddle a deliver phase.
  arrivals_.ReserveActive(s_nodes_.size() + t_nodes_.size());
  for (size_t i = 0; i < producers_.size(); ++i) {
    const size_t roles = nodes_[i].s_pairs.size() + nodes_[i].t_pairs.size();
    if (roles > 0) arrivals_.ReserveBox(static_cast<int32_t>(i), 2 * roles);
  }
  emit_merge_.reserve(4 * pairs_.size());
  // Per-cycle frame emissions: one data message per firing producer role
  // plus result messages, with 2x slack for multi-hop tails that straddle
  // cycles.
  net_->ReserveSteadyState(
      2 * (s_nodes_.size() + t_nodes_.size() + pairs_.size()));
  initiated_ = true;
  plans_dirty_ = true;  // build the per-producer send plans lazily
  return Status::OK();
}

Status JoinExecutor::InitNaive() {
  // No per-query setup beyond the (sunk) initial routing-tree construction.
  init_latency_ = 0;
  return Status::OK();
}

Status JoinExecutor::InitBase() {
  // Static pre-computation round (Table 3, Base row): every
  // selection-eligible node reports its static join attributes to the base;
  // the base replies to the nodes that participate in at least one pair.
  const int report_bytes = 8;  // a few 16-bit attributes + node id
  const int reply_bytes = 4;
  int max_depth = 0;
  for (NodeId u = 1; u < workload_->topology().num_nodes(); ++u) {
    if (!workload_->SEligible(u) && !workload_->TEligible(u)) continue;
    ChargeAlongPath(primary_tree().PathToRoot(u), report_bytes,
                    MessageKind::kExploration);
    max_depth = std::max(max_depth, DepthOf(u));
  }
  for (size_t i = 0; i < producers_.size(); ++i) {
    const NodeId u = producers_[i];
    if (u == 0) continue;
    if (!nodes_[i].s_pairs.empty() || !nodes_[i].t_pairs.empty()) {
      ChargeAlongPath(primary_tree().PathFromRoot(u), reply_bytes,
                      MessageKind::kExplorationReply);
    }
  }
  init_latency_ = 2 * max_depth;
  return Status::OK();
}

Status JoinExecutor::InitYang07() {
  // Through-the-base needs no setup (Table 3: initiation 0); join nodes are
  // the T producers themselves.
  for (auto& pl : placements_) {
    if (pl.shared_owner >= 0) continue;  // served by the sharing owner
    pl.at_base = false;
    pl.join_node = pl.pair.t;
    // The root's relay route to this T partner, interned once and retained
    // (one owner reference) until Shutdown.
    pl.route_from_root =
        net_->routes().InternPath(primary_tree().PathFromRoot(pl.pair.t));
    RefRoute(pl.route_from_root);
  }
  init_latency_ = 0;
  return Status::OK();
}

Status JoinExecutor::InitGht() {
  const auto& topo = workload_->topology();
  if (opts_.mesh_mode) {
    dht_ = std::make_unique<routing::DhtRing>(&topo, opts_.seed);
  } else {
    geo_ = std::make_unique<routing::GeoHash>(&topo, opts_.seed);
  }
  const auto& primary = workload_->analysis().primary;
  auto node_for_key = [&](int32_t key) {
    return opts_.mesh_mode ? dht_->NodeForKey(key) : geo_->NodeForKey(key);
  };
  for (auto& pl : placements_) {
    if (pl.shared_owner >= 0) continue;  // served by the sharing owner
    const PairKey& key = pl.pair;
    int32_t hash_key = 0;
    if (primary.has_value() && primary->region_radius_dm.has_value()) {
      // Region join: rendezvous at the home node of the pair-midpoint cell
      // (cell side = region radius, so covered pairs always share a cell
      // neighborhood; the midpoint canonicalizes the assignment).
      const auto& st = workload_->statics().tuple(key.s);
      const auto& tt = workload_->statics().tuple(key.t);
      int radius = *primary->region_radius_dm;
      int cx = (st[query::kAttrPosX] + tt[query::kAttrPosX]) / 2 / radius;
      int cy = (st[query::kAttrPosY] + tt[query::kAttrPosY]) / 2 / radius;
      hash_key = cx * 4096 + cy;
    } else {
      auto k = workload_->SJoinKey(key.s);
      if (!k.has_value()) {
        return Status::FailedPrecondition(
            "GHT requires a routable equality or region join key");
      }
      hash_key = *k;
    }
    pl.at_base = false;
    pl.join_node = node_for_key(hash_key);
  }
  // Initiation: producers register with each of their rendezvous nodes
  // (Table 3: >= sigma_s*Dsj + sigma_t*Dtj — one announce per path).
  int max_len = 0;
  auto announce = [&](NodeId p, NodeId j) {
    std::vector<NodeId> path = opts_.mesh_mode
                                   ? topo.ShortestPath(p, j)
                                   : geo_->GreedyPath(p, j);
    ChargeAlongPath(path, 6, MessageKind::kExploration);
    max_len = std::max(max_len, static_cast<int>(path.size()));
  };
  std::set<std::pair<NodeId, NodeId>> announced;
  for (const auto& key : pairs_) {
    const PairPlacement* pl = FindPlacement(key);
    if (pl->shared_owner >= 0) continue;  // served by the sharing owner
    if (announced.insert({key.s, pl->join_node}).second) {
      announce(key.s, pl->join_node);
    }
    if (announced.insert({key.t, pl->join_node}).second) {
      announce(key.t, pl->join_node);
    }
  }
  init_latency_ = max_len;
  return Status::OK();
}

// ---- data plane ---------------------------------------------------------------

net::PayloadHandle JoinExecutor::MakeData(NodeId p, const Tuple& t, int cycle,
                                          bool as_s, bool as_t) {
  net::PayloadHandle h = data_pool_->Allocate();
  DataPayload* d = data_pool_->Get(h);
  d->producer = p;
  d->tuple = t;  // copy into the recycled slot's capacity
  d->sample_cycle = cycle;
  d->as_s = as_s;
  d->as_t = as_t;
  return h;
}

void JoinExecutor::RebuildSendPlans() {
  plans_dirty_ = false;
  if (opts_.algorithm != Algorithm::kInnet &&
      opts_.algorithm != Algorithm::kGht) {
    return;
  }
  net::RouteTable& routes = net_->routes();
  std::vector<NodeId> seg;
  auto find_or_insert = [](std::vector<SendPlanEntry>* plan,
                           NodeId dest) -> SendPlanEntry* {
    auto it = std::lower_bound(plan->begin(), plan->end(), dest,
                               [](const SendPlanEntry& e, NodeId d) {
                                 return e.dest < d;
                               });
    if (it == plan->end() || it->dest != dest) {
      it = plan->insert(it, SendPlanEntry{});
      it->dest = dest;
    }
    return &*it;
  };
  // Producers in ascending id: the order routes are interned and released.
  for (size_t i = 0; i < producers_.size(); ++i) {
    const NodeId p = producers_[i];
    NodeState& node = nodes_[i];
    // The old plan's interned routes lose this producer's references; a
    // route nobody else retains retires for the next epoch-safe sweep.
    for (SendPlanEntry& old : node.plan) {
      UnrefRoute(old.route_s);
      UnrefRoute(old.route_t);
    }
    node.plan.clear();
    node.plan_base_s = false;
    node.plan_base_t = false;
    if (node.s_pairs.empty() && node.t_pairs.empty()) continue;
    if (opts_.algorithm == Algorithm::kInnet) {
      // Mirror the historical per-cycle destination collection: per role,
      // the first in-network pair mapping to a join node defines the route.
      auto collect = [&](const std::vector<int32_t>& pair_idxs, bool role_s) {
        for (int32_t pi : pair_idxs) {
          const PairPlacement& pl = placements_[pi];
          if (pl.at_base || pl.path.empty()) {
            (role_s ? node.plan_base_s : node.plan_base_t) = true;
            continue;
          }
          SendPlanEntry* e = find_or_insert(&node.plan, pl.join_node);
          bool& role_flag = role_s ? e->has_s : e->has_t;
          if (role_flag) continue;
          role_flag = true;
          RoleSegment(pl, role_s, &seg);
          net::RouteId rid = routes.InternPath(seg);
          (role_s ? e->route_s : e->route_t) = rid;
          RefRoute(rid);
        }
      };
      collect(node.s_pairs, true);
      collect(node.t_pairs, false);
    } else {
      // GHT: one destination per distinct rendezvous node; mesh mode ships
      // along the interned shortest path, mote mode routes geo-greedily.
      auto collect = [&](const std::vector<int32_t>& pair_idxs, bool role_s) {
        for (int32_t pi : pair_idxs) {
          SendPlanEntry* e =
              find_or_insert(&node.plan, placements_[pi].join_node);
          (role_s ? e->has_s : e->has_t) = true;
        }
      };
      collect(node.s_pairs, true);
      collect(node.t_pairs, false);
      if (opts_.mesh_mode) {
        for (SendPlanEntry& e : node.plan) {
          e.route_s = e.route_t = routes.InternPath(
              workload_->topology().ShortestPath(p, e.dest));
          // One reference per retained field, so releases balance exactly.
          RefRoute(e.route_s);
          RefRoute(e.route_t);
        }
      }
    }
  }
}

void JoinExecutor::OnSampleBegin(int cycle) {
  // Begin/Commit hooks run on the scheduler thread between shard passes.
  common::SequentialPhaseScope seq;
  cycle_ = cycle;
  RetryPendingReplays();
  if (plans_dirty_) RebuildSendPlans();
  // The shard passes call PassS/TFilter concurrently; warming here (after
  // any between-cycle parameter mutation) makes those calls read-only.
  workload_->WarmFilterCache();
}

void JoinExecutor::BuildProducerCache(ShardScratch* sc, NodeId begin,
                                      NodeId end) {
  // Producer roles are fixed once Initiate has filled the pair lists (the
  // only writer), and naive eligibility is a pure function of statics, so
  // the scan runs once per shard range rather than every cycle.
  const bool naive = opts_.algorithm == Algorithm::kNaive;
  sc->cached_begin = begin;
  sc->cached_end = end;
  sc->producer_ids.clear();
  sc->producer_roles.clear();
  const size_t lo = static_cast<size_t>(
      std::lower_bound(producers_.begin(), producers_.end(), begin) -
      producers_.begin());
  for (size_t i = lo; i < producers_.size() && producers_[i] < end; ++i) {
    const NodeId p = producers_[i];
    const NodeState& node = nodes_[i];
    const bool s_role = naive ? workload_->SEligible(p) : !node.s_pairs.empty();
    const bool t_role = naive ? workload_->TEligible(p) : !node.t_pairs.empty();
    if (!s_role && !t_role) continue;
    sc->producer_ids.push_back(p);
    sc->producer_roles.push_back(static_cast<uint8_t>((s_role ? 1 : 0) |
                                                      (t_role ? 2 : 0)));
  }
  // Pre-size every slab of the ring for the worst case (every producer
  // passes both filters) so the steady-state sample stage never allocates;
  // warming the tuples to full width gives every slot its capacity up
  // front.
  const size_t cap = sc->producer_ids.size();
  for (SampleSlab& slab : sc->slabs) {
    slab.s_bits.assign((cap + 63) / 64, 0ULL);
    slab.t_bits.assign((cap + 63) / 64, 0ULL);
    slab.staged_ids.resize(cap);
    slab.staged_flags.resize(cap);
    slab.staged_tuples.resize(cap);
    for (query::Tuple& t : slab.staged_tuples) t.resize(query::kNumAttrs);
    slab.staged_count = 0;
  }
  // Deliver-phase staging for the same shard: each pair applies at most
  // one arrival per role per sampling cycle, with 2x slack for multi-hop
  // deliveries straddling a phase.
  sc->emits.reserve(4 * pairs_.size());
  sc->touched_sites.reserve(4 * pairs_.size());
}

void JoinExecutor::ConfigureSampleSlots(int slots) {
  if (slots == sample_slots_) return;
  ASPEN_CHECK(slots >= 1);
  sample_slots_ = slots;
  for (ShardScratch& sc : scratch_) {
    sc.slabs.resize(static_cast<size_t>(slots));
    // Invalidate so the next (synchronous) stage pass re-sizes every slab
    // of the new ring through BuildProducerCache.
    sc.cached_begin = -1;
    sc.cached_end = -1;
  }
}

void JoinExecutor::OnSampleStage(int cycle, int slot, int shard, NodeId begin,
                                 NodeId end) {
  // Pure per-node work: batched filters and sampling of the passing
  // producers into the slab named by `slot`. Sampling is a pure function of
  // (node, cycle, seed) and the filter cache is warm (OnSampleBegin), so
  // this reads nothing that mutates during a cycle and writes nothing but
  // the slab — a pipelined scheduler may run it for a future cycle while
  // the current cycle's transmit is in flight. Submissions, failed-node
  // filtering and the producer-local last-w buffers happen at commit, in
  // node order, so the network sees the identical stream for any shard
  // count and pipeline depth. Filters run before sampling — the filter
  // verdict only depends on the u draw, which PassFilters recomputes
  // bit-identically — so non-senders cost one hash instead of a full tuple
  // materialization.
  ShardScratch& sc = scratch_[shard];
  if (sc.cached_begin != begin || sc.cached_end != end) {
    BuildProducerCache(&sc, begin, end);
  }
  SampleSlab& slab = sc.slabs[static_cast<size_t>(slot)];
  slab.staged_count = 0;
  const int num_producers = static_cast<int>(sc.producer_ids.size());
  if (num_producers == 0) return;
  workload_->PassFilters(sc.producer_ids.data(), num_producers, cycle,
                         slab.s_bits.data(), slab.t_bits.data());
  for (int i = 0; i < num_producers; ++i) {
    const uint8_t roles = sc.producer_roles[i];
    const uint64_t word_bit = 1ULL << (i & 63);
    const bool send_s = (roles & 1) && (slab.s_bits[i >> 6] & word_bit);
    const bool send_t = (roles & 2) && (slab.t_bits[i >> 6] & word_bit);
    if (!send_s && !send_t) continue;
    slab.staged_ids[slab.staged_count] = sc.producer_ids[i];
    slab.staged_flags[slab.staged_count] =
        static_cast<uint8_t>((send_s ? 1 : 0) | (send_t ? 2 : 0));
    ++slab.staged_count;
  }
  workload_->SampleBatchInto(slab.staged_ids.data(), slab.staged_count, cycle,
                             slab.staged_tuples.data());
}

Status JoinExecutor::OnSampleCommit(int cycle, int slot) {
  common::SequentialPhaseScope seq;
  const int w = workload_->join_query().window.size;
  // Shards are contiguous ascending node ranges, so walking them in order
  // submits in exactly the node order of the unsharded loop. Failure
  // filtering happens here — after every scenario event of this cycle's
  // sample phase, exactly where the old in-stage check observed it; a
  // staged-but-failed producer's tuple is simply skipped (its draw consumed
  // no shared RNG, so every other submission is unchanged).
  for (ShardScratch& sc : scratch_) {
    SampleSlab& slab = sc.slabs[static_cast<size_t>(slot)];
    for (int i = 0; i < slab.staged_count; ++i) {
      const NodeId p = slab.staged_ids[i];
      if (net_->IsFailed(p)) continue;
      const query::Tuple& t = slab.staged_tuples[i];
      const bool send_s = slab.staged_flags[i] & 1;
      const bool send_t = slab.staged_flags[i] & 2;
      // Producers remember their last w sent tuples per role so a join
      // window can be reconstructed at the base after a join-node failure.
      // The rings are consumed by the learn phase (SendWindowReplay), which
      // always follows this commit within a cycle.
      NodeState& node = Node(p);
      if (send_s) node.recent_sent[1].Push(t, w);
      if (send_t) node.recent_sent[0].Push(t, w);
      switch (opts_.algorithm) {
        case Algorithm::kNaive:
        case Algorithm::kBase:
          SendToBase(p, t, cycle, send_s, send_t);
          break;
        case Algorithm::kYang07:
          SendYang(p, t, cycle, send_s, send_t);
          break;
        case Algorithm::kGht:
          SendGht(p, t, cycle, send_s, send_t);
          break;
        case Algorithm::kInnet:
          SendInnet(p, t, cycle, send_s, send_t);
          break;
      }
    }
    slab.staged_count = 0;
  }
  return Status::OK();
}

void JoinExecutor::SendToBase(NodeId p, const Tuple& t, int cycle, bool as_s,
                              bool as_t) {
  Message msg;
  msg.kind = MessageKind::kData;
  msg.mode = RoutingMode::kTreeToRoot;
  msg.origin = p;
  msg.dest = 0;
  msg.size_bytes = workload_->DataBytes();
  msg.payload = MakeData(p, t, cycle, as_s, as_t);
  (void)SubmitToNet(msg);
}

void JoinExecutor::SendYang(NodeId p, const Tuple& t, int cycle, bool as_s,
                            bool as_t) {
  const NodeState& node = Node(p);
  if (as_s && !node.s_pairs.empty()) {
    // Up to the root; the root re-routes to the T partners on delivery.
    Message msg;
    msg.kind = MessageKind::kData;
    msg.mode = RoutingMode::kTreeToRoot;
    msg.origin = p;
    msg.dest = 0;
    msg.size_bytes = workload_->DataBytes();
    msg.payload = MakeData(p, t, cycle, /*as_s=*/true, /*as_t=*/false);
    (void)SubmitToNet(msg);
  }
  if (as_t && !node.t_pairs.empty()) {
    // T producers never transmit their samples: they buffer them locally
    // and join arriving S tuples against them. Model the local buffering as
    // a zero-cost arrival at the node itself (the arrival owns the payload
    // reference until the deliver phase).
    arrivals_.Push(slot_of_[p],
                   Arrival{p, MakeData(p, t, cycle, /*as_s=*/false,
                                       /*as_t=*/true)});
  }
}

void JoinExecutor::SendGht(NodeId p, const Tuple& t, int cycle, bool as_s,
                           bool as_t) {
  // One message per distinct rendezvous node over this producer's pairs,
  // from the precomputed plan (entries ascend by rendezvous node, matching
  // the old per-cycle ordered-map collection).
  for (const SendPlanEntry& e : Node(p).plan) {
    const bool use_s = as_s && e.has_s;
    const bool use_t = as_t && e.has_t;
    if (!use_s && !use_t) continue;
    Message msg;
    msg.kind = MessageKind::kData;
    msg.origin = p;
    msg.dest = e.dest;
    msg.size_bytes = workload_->DataBytes();
    msg.payload = MakeData(p, t, cycle, use_s, use_t);
    if (opts_.mesh_mode) {
      msg.mode = RoutingMode::kSourcePath;
      msg.route = e.route_s;
    } else {
      msg.mode = RoutingMode::kGeoGreedy;
    }
    (void)SubmitToNet(msg);
  }
}

// ---- arrivals -------------------------------------------------------------------

void JoinExecutor::OnDeliverMsg(const Message& msg, NodeId at) {
  // Delivery handlers fire from the network's exchange phase (or from an
  // inline local delivery during a sequential submit) — never from a shard
  // compute walk, which only defers kDeliver effects.
  common::SequentialPhaseScope seq;
  switch (msg.kind) {
    case MessageKind::kData: {
      const DataPayload* data = data_pool_->Get(msg.payload);
      ASPEN_CHECK(data != nullptr);
      // Yang+07: the root relays S data down to every T partner.
      if (opts_.algorithm == Algorithm::kYang07 && at == 0 && data->as_s) {
        for (int32_t pi : Node(data->producer).s_pairs) {
          const PairPlacement& pl = placements_[pi];
          if (pl.at_base) continue;  // failed over: join here
          Message down;
          down.kind = MessageKind::kData;
          down.mode = RoutingMode::kSourcePath;
          down.origin = 0;
          down.dest = pl.pair.t;
          down.route = pl.route_from_root;
          down.size_bytes = workload_->DataBytes();
          down.payload = msg.payload;
          net_->payloads().AddRef(down.payload);  // Submit consumes one ref
          (void)SubmitToNet(down);
        }
        // Fall through to buffering: failed-over pairs join at the base.
      }
      // The arrival keeps the payload alive past this borrowed delivery.
      net_->payloads().AddRef(msg.payload);
      arrivals_.Push(slot_of_[data->producer], Arrival{at, msg.payload});
      break;
    }
    case MessageKind::kJoinResult: {
      const ResultPayload* res = result_pool_->Get(msg.payload);
      ASPEN_CHECK(res != nullptr);
      DeliverResultAtBase(PairKey{res->s, res->t}, 1, res->sample_cycle);
      break;
    }
    case MessageKind::kWindowTransfer: {
      const WindowTransferPayload* wt = window_pool_->Get(msg.payload);
      ASPEN_CHECK(wt != nullptr);
      PairState& st = StateAt(at, wt->pair);
      // Tuples carry their sampling cycle in the seq attribute.
      for (const auto& t : wt->s_window) {
        st.s_window.Push(t, t[query::kAttrSeq]);
      }
      for (const auto& t : wt->t_window) {
        st.t_window.Push(t, t[query::kAttrSeq]);
      }
      break;
    }
    default:
      break;  // control traffic needs no handling
  }
}

void JoinExecutor::DeliverResultAtBase(const PairKey& pair, int count,
                                       int sample_cycle) {
  results_ += count;
  double delay = static_cast<double>(cycle_ - sample_cycle);
  delay_sum_ += delay * count;
  delay_max_ = std::max(delay_max_, delay);
  // One evaluation fans out to every subscribed query (placement sharing).
  // The counter gate keeps unshared queries off the placement lookup.
  if (num_fanout_pairs_ > 0) {
    const PairPlacement* pl = FindPlacement(pair);
    if (pl != nullptr && pl->shared_entry >= 0) {
      medium_->FanOutSharedResult(pl->shared_entry, count, sample_cycle);
    }
  }
}

void JoinExecutor::AccountSharedResult(int count, int sample_cycle) {
  // Identical accounting to DeliverResultAtBase: the subscriber's clock
  // runs in lockstep with the owner's (one medium scheduler), so the
  // booked delay matches what an unshared run would have measured.
  results_ += count;
  double delay = static_cast<double>(cycle_ - sample_cycle);
  delay_sum_ += delay * count;
  delay_max_ = std::max(delay_max_, delay);
}

void JoinExecutor::SuppressSharedPair(int32_t pi) {
  const PairKey& pair = placements_[pi].pair;
  auto drop = [pi](std::vector<int32_t>* list) {
    list->erase(std::remove(list->begin(), list->end(), pi), list->end());
  };
  drop(&Node(pair.s).s_pairs);
  drop(&Node(pair.t).t_pairs);
}

void JoinExecutor::AdoptSharedPlacement(JoinExecutor* old_owner,
                                        const PairKey& pair) {
  PairPlacement* pl = MutablePlacement(pair);
  const PairPlacement* src = old_owner->FindPlacement(pair);
  ASPEN_CHECK(pl != nullptr && src != nullptr);
  ASPEN_CHECK(pl->shared_owner >= 0);
  pl->shared_owner = -1;
  pl->at_base = src->at_base;
  pl->join_node = src->join_node;
  pl->path = src->path;
  pl->path_index = src->path_index;
  pl->placed_with = src->placed_with;
  pl->pairwise_at_base = src->pairwise_at_base;
  pl->failed_over = src->failed_over;
  // Take a reference of our own before the departing owner's Shutdown
  // drops its — the route never sees zero references in between.
  pl->route_from_root = src->route_from_root;
  RefRoute(pl->route_from_root);
  // Restore the pair into the data plane. The placement table is
  // pair-sorted, so sorted index insertion reproduces the order
  // InitCommon would have built.
  const int32_t pi = static_cast<int32_t>(pl - placements_.data());
  common::InsertSortedUnique(&Node(pair.s).s_pairs, pi);
  common::InsertSortedUnique(&Node(pair.t).t_pairs, pi);
  // Adopt the owner's window contents so the promoted query's join resumes
  // with full history — results continue exactly as the shared stream did
  // (same workload, same windows).
  const NodeId site = pl->at_base ? 0 : pl->join_node;
  PairState* ost = old_owner->FindState(site, pair);
  EnsureNode(site);
  PairState& nst = StateAt(site, pair);
  nst.s_window.Warm(query::kNumAttrs);
  nst.t_window.Warm(query::kNumAttrs);
  if (ost != nullptr) {
    for (int i = 0; i < ost->s_window.size(); ++i) {
      const auto& e = ost->s_window.entry(i);
      nst.s_window.Push(e.tuple, e.cycle);
    }
    for (int i = 0; i < ost->t_window.size(); ++i) {
      const auto& e = ost->t_window.entry(i);
      nst.t_window.Push(e.tuple, e.cycle);
    }
  }
  // The producer caches key off the pair lists; force a rebuild, and
  // rebuild the producers' multicast trees over the restored target set.
  for (ShardScratch& sc : scratch_) {
    sc.cached_begin = -1;
    sc.cached_end = -1;
  }
  plans_dirty_ = true;
  if (opts_.algorithm == Algorithm::kInnet && !pl->at_base) {
    RebuildProducerRoute(pair.s, true, /*charge_traffic=*/true);
    RebuildProducerRoute(pair.t, false, /*charge_traffic=*/true);
  }
}

void JoinExecutor::TouchSite(NodeId at) {
  common::InsertSortedUnique(&active_sites_, at);
}

NodeState& JoinExecutor::EnsureNode(NodeId id) {
  int32_t& slot = slot_of_[id];
  if (slot < 0) {
    slot = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  return nodes_[slot];
}

PairState& JoinExecutor::StateAt(NodeId at, const PairKey& pair) {
  const auto& window = workload_->join_query().window;
  // Handlers reach here, so the site must already have its slot.
  const int32_t slot = slot_of_[at];
  ASPEN_CHECK(slot >= 0);
  TouchSite(at);
  return nodes_[slot].StateAt(pair, window.size, window.time_based);
}

PairState& JoinExecutor::StateAtShard(int shard, NodeId at,
                                      const PairKey& pair) {
  const auto& window = workload_->join_query().window;
  // The pair's current site: its slot was made where the site was chosen
  // (the base, for a failover the drop handler flipped).
  const int32_t slot = slot_of_[at];
  ASPEN_CHECK(slot >= 0);
  scratch_[shard].touched_sites.push_back(at);
  return nodes_[slot].StateAt(pair, window.size, window.time_based);
}

PairState* JoinExecutor::FindState(NodeId at, const PairKey& pair) {
  NodeState* node = FindNode(at);
  return node == nullptr ? nullptr : node->FindState(pair);
}

void JoinExecutor::OnDeliverBegin(int cycle) {
  (void)cycle;
  common::SequentialPhaseScope seq;
  arrivals_.ForEach([](int32_t, std::vector<Arrival>& items) {
    // Stable insertion sort by delivery location: boxes are tiny and, unlike
    // std::stable_sort, this never touches the heap. ForEach also sorts the
    // active-node list, so the concurrent shard passes below are read-only.
    for (size_t i = 1; i < items.size(); ++i) {
      const Arrival key = items[i];
      size_t j = i;
      while (j > 0 && key.at < items[j - 1].at) {
        items[j] = items[j - 1];
        --j;
      }
      items[j] = key;
    }
  });
}

void JoinExecutor::OnDeliverShard(int cycle, int shard, NodeId begin,
                                  NodeId end) {
  // Deterministic ordering: all S-side applications first, then T-side,
  // each in (producer, location) order. A tuple joins the opposite window
  // as of its own insertion; same-cycle (s, t) pairs match exactly once —
  // when the T side is applied. Join state lives at the delivery location,
  // so each shard owns the probes and window mutations of its node range;
  // result emissions touch shared state and are deferred to the commit.
  (void)cycle;
  ShardScratch& sc = scratch_[shard];
  sc.emits.clear();
  sc.touched_sites.clear();
  for (uint8_t phase = 0; phase < 2; ++phase) {
    const bool s_phase = phase == 0;
    arrivals_.ForEachConst([&](int32_t producer_slot,
                               const std::vector<Arrival>& items) {
      const NodeState& pnode = nodes_[producer_slot];
      const auto& pair_idxs = s_phase ? pnode.s_pairs : pnode.t_pairs;
      if (pair_idxs.empty()) return;
      for (int32_t bi = 0; bi < static_cast<int32_t>(items.size()); ++bi) {
        const Arrival& a = items[bi];
        if (a.at < begin || a.at >= end) continue;
        const DataPayload& data = *data_pool_->Get(a.data);
        if (s_phase ? !data.as_s : !data.as_t) continue;
        for (int32_t pp = 0; pp < static_cast<int32_t>(pair_idxs.size());
             ++pp) {
          const PairPlacement& pl = placements_[pair_idxs[pp]];
          NodeId expect = pl.at_base ? 0 : pl.join_node;
          if (expect != a.at) continue;
          PairState& st = StateAtShard(shard, a.at, pl.pair);
          auto& own_window = s_phase ? st.s_window : st.t_window;
          auto& other_window = s_phase ? st.t_window : st.s_window;
          other_window.EvictExpired(data.sample_cycle);
          int matches = 0;
          for (int e = 0; e < other_window.size(); ++e) {
            const Tuple& other = other_window.entry(e).tuple;
            bool joins = s_phase ? workload_->TuplesJoin(data.tuple, other)
                                 : workload_->TuplesJoin(other, data.tuple);
            if (joins) ++matches;
          }
          if (s_phase) {
            st.estimator.RecordS(matches);
          } else {
            st.estimator.RecordT(matches);
          }
          own_window.Push(data.tuple, data.sample_cycle);
          if (matches > 0) {
            DeferredEmit e;
            e.phase = phase;
            e.producer_slot = producer_slot;
            e.box_pos = bi;
            e.pair_pos = pp;
            e.at = a.at;
            e.pair = pl.pair;
            e.matches = matches;
            e.sample_cycle = data.sample_cycle;
            sc.emits.push_back(e);
          }
        }
      }
    });
  }
}

Status JoinExecutor::OnDeliverCommit(int cycle) {
  (void)cycle;
  common::SequentialPhaseScope seq;
  for (ShardScratch& sc : scratch_) {
    for (NodeId site : sc.touched_sites) TouchSite(site);
    sc.touched_sites.clear();
  }
  // Replay deferred emissions in the exact order the unsharded pass emits:
  // S side before T side, producers ascending, arrivals in box order,
  // pairs in the producer's pair-list order. Every key component is
  // content, so the merged order is identical for any shard count.
  emit_merge_.clear();
  for (const ShardScratch& sc : scratch_) {
    for (const DeferredEmit& e : sc.emits) emit_merge_.push_back(&e);
  }
  std::sort(emit_merge_.begin(), emit_merge_.end(),
            [](const DeferredEmit* x, const DeferredEmit* y) {
              return std::tie(x->phase, x->producer_slot, x->box_pos,
                              x->pair_pos) <
                     std::tie(y->phase, y->producer_slot, y->box_pos,
                              y->pair_pos);
            });
  for (const DeferredEmit* e : emit_merge_) {
    EmitResults(e->at, e->pair, e->matches, e->sample_cycle);
  }
  emit_merge_.clear();
  for (ShardScratch& sc : scratch_) sc.emits.clear();
  // The arrivals owned one payload reference each; drop them with the batch.
  arrivals_.ForEach([&](int32_t, std::vector<Arrival>& items) {
    for (const Arrival& a : items) net_->payloads().Release(a.data);
  });
  arrivals_.Clear();
  return Status::OK();
}

void JoinExecutor::EmitResults(NodeId at, const PairKey& pair, int count,
                               int sample_cycle) {
  if (at == 0) {
    DeliverResultAtBase(pair, count, sample_cycle);
    return;
  }
  for (int i = 0; i < count; ++i) {
    net::PayloadHandle h = result_pool_->Allocate();
    ResultPayload* res = result_pool_->Get(h);
    res->s = pair.s;
    res->t = pair.t;
    res->sample_cycle = sample_cycle;
    Message msg;
    msg.kind = MessageKind::kJoinResult;
    msg.mode = RoutingMode::kTreeToRoot;
    msg.origin = at;
    msg.dest = 0;
    msg.size_bytes = workload_->ResultBytes();
    msg.payload = h;
    (void)SubmitToNet(msg);
  }
}

// ---- kernel phases --------------------------------------------------------------

Status JoinExecutor::OnReoptimize(int cycle) {
  (void)cycle;
  if (!initiated_ || shutdown_) return Status::OK();
  if (planned_migrations_.empty() && !reopt_.enabled()) return Status::OK();
  // Runs in the scheduler's exchange window: nothing in flight, every
  // deliver commit applied — identical state at any shard count or
  // pipeline depth, so the decisions below are byte-reproducible.
  common::SequentialPhaseScope seq;
  net::TrafficStats::QueryScope scope(&net_->stats(), query_id_);
  AdvancePlannedMigrations();
  if (opts_.knobs.migration == common::Migration::kPlanned) {
    RunArmedAdaptation();
  }
  return Status::OK();
}

Status JoinExecutor::OnLearn(int cycle) {
  if (!initiated_) {
    return Status::FailedPrecondition("learn phase before Initiate");
  }
  common::SequentialPhaseScope seq;
  net::TrafficStats::QueryScope scope(&net_->stats(), query_id_);
  ForEachState([](NodeId, PairState& st) { st.estimator.Tick(); });
  reopt_.Tick();
  if (opts_.knobs.migration == common::Migration::kInstant) {
    RunArmedAdaptation();
  }
  cycle_ = cycle + 1;
  return Status::OK();
}

void JoinExecutor::RunArmedAdaptation() {
  if (opts_.algorithm == Algorithm::kInnet && reopt_.TakeDue()) RunReopt();
  if (reopt_.TakeReset()) {
    ForEachState([](NodeId, PairState& st) { st.estimator.Reset(); });
  }
}

RunStats JoinExecutor::Stats() const {
  RunStats out;
  out.algorithm = AlgorithmName(opts_.algorithm, opts_.features);
  const auto& s = net_->stats();
  out.total_bytes = s.TotalBytesSent();
  out.base_bytes = s.BaseStationBytes();
  out.max_node_bytes = s.MaxNodeBytes();
  out.total_messages = s.TotalMessagesSent();
  out.base_messages = s.BaseStationMessages();
  out.max_node_messages = s.MaxNodeMessages();
  out.initiation_bytes = s.InitiationBytes();
  out.computation_bytes = s.ComputationBytes();
  out.top_node_loads = s.TopLoadedNodes(15);
  out.query_bytes = s.QueryBytesSent(query_id_);
  out.query_messages = s.QueryMessagesSent(query_id_);
  out.results = results_;
  out.avg_result_delay_cycles = results_ > 0 ? delay_sum_ / results_ : 0.0;
  out.max_result_delay_cycles = delay_max_;
  out.migrations = migrations_;
  out.failovers = failovers_;
  // Only planned passes are reported: golden_run_test pins 0 passes for
  // runs of the paper's instant learning loop.
  out.reopt_passes =
      opts_.knobs.migration == common::Migration::kPlanned ? reopt_.passes()
                                                           : 0;
  out.planned_migrations = reopt_.completed();
  out.init_latency_cycles = init_latency_;
  out.sampling_cycles = cycle_;
  return out;
}

}  // namespace join
}  // namespace aspen
