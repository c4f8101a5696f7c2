#include "workload/workload.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/logging.h"
#include "routing/content_address.h"

namespace aspen {
namespace workload {

using query::AttrId;
using query::Expr;
using query::ExprPtr;
using query::Side;

namespace {

/// hP(u) as an expression: hash(u + salt) % mod == 0 (omitted when mod <= 1).
ExprPtr FilterClause(Side side, int salt, int mod) {
  ASPEN_CHECK_GT(mod, 1);
  return Expr::Eq(
      Expr::Mod(Expr::Hash(Expr::Add(Expr::Attr(side, AttrId::kAttrU),
                                     Expr::Const(salt))),
                Expr::Const(mod)),
      Expr::Const(0));
}

void AppendFilters(std::vector<ExprPtr>* clauses, const FilterDesign& design) {
  if (design.mod_s > 1) {
    clauses->push_back(FilterClause(Side::kS, design.salt_s, design.mod_s));
  }
  if (design.mod_t > 1) {
    clauses->push_back(FilterClause(Side::kT, design.salt_t, design.mod_t));
  }
}

}  // namespace

Workload::Workload(const net::Topology* topology, uint64_t seed)
    : topology_(topology),
      seed_(seed),
      statics_(*topology, seed ^ 0x57A71C5ULL),
      node_params_(topology->num_nodes()) {}

Status Workload::Finalize(query::JoinQuery query) {
  query_ = std::move(query);
  ASPEN_ASSIGN_OR_RETURN(analysis_, query::Analyze(query_));
  return Status::OK();
}

Result<Workload> Workload::MakeQuery0(const net::Topology* topology,
                                      SelectivityParams params, int num_pairs,
                                      int window, uint64_t seed) {
  if (num_pairs < 1) {
    return Status::InvalidArgument("Query0 needs at least one pair");
  }
  Workload w(topology, seed);
  w.default_params_ = params;
  const int n = topology->num_nodes();
  if (2 * num_pairs > n - 1) {
    return Status::InvalidArgument("Query0: too many pairs for the network");
  }
  // Random, disjoint endpoints (never the base station). S members get
  // group_id = 1, T members group_id = 2; partners share a name_id.
  Rng rng(seed ^ 0xBEEFULL);
  std::vector<net::NodeId> ids;
  for (net::NodeId i = 1; i < n; ++i) ids.push_back(i);
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.UniformInt(i)]);
  }
  for (int p = 0; p < num_pairs; ++p) {
    net::NodeId s = ids[2 * p], t = ids[2 * p + 1];
    w.statics_.Set(s, AttrId::kAttrGroupId, 1);
    w.statics_.Set(s, AttrId::kAttrNameId, p);
    w.statics_.Set(t, AttrId::kAttrGroupId, 2);
    w.statics_.Set(t, AttrId::kAttrNameId, p);
  }
  const FilterDesign design = DesignFilters(params);
  std::vector<ExprPtr> clauses{
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrGroupId), Expr::Const(1)),
      Expr::Eq(Expr::Attr(Side::kT, AttrId::kAttrGroupId), Expr::Const(2)),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrNameId),
               Expr::Attr(Side::kT, AttrId::kAttrNameId)),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrU),
               Expr::Attr(Side::kT, AttrId::kAttrU))};
  AppendFilters(&clauses, design);
  query::JoinQuery q;
  q.where = Expr::AndAll(clauses);
  q.window.size = window;
  ASPEN_RETURN_NOT_OK(w.Finalize(std::move(q)));
  return w;
}

Result<Workload> Workload::MakeQuery1(const net::Topology* topology,
                                      SelectivityParams params, int window,
                                      uint64_t seed) {
  Workload w(topology, seed);
  w.default_params_ = params;
  const FilterDesign design = DesignFilters(params);
  std::vector<ExprPtr> clauses{
      Expr::Lt(Expr::Attr(Side::kS, AttrId::kAttrId), Expr::Const(25)),
      Expr::Gt(Expr::Attr(Side::kT, AttrId::kAttrId), Expr::Const(50)),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrX),
               Expr::Add(Expr::Attr(Side::kT, AttrId::kAttrY),
                         Expr::Const(5))),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrU),
               Expr::Attr(Side::kT, AttrId::kAttrU))};
  AppendFilters(&clauses, design);
  query::JoinQuery q;
  q.where = Expr::AndAll(clauses);
  q.window.size = window;
  ASPEN_RETURN_NOT_OK(w.Finalize(std::move(q)));
  return w;
}

Result<Workload> Workload::MakeQuery2(const net::Topology* topology,
                                      SelectivityParams params, int window,
                                      uint64_t seed) {
  Workload w(topology, seed);
  w.default_params_ = params;
  const FilterDesign design = DesignFilters(params);
  std::vector<ExprPtr> clauses{
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrRid), Expr::Const(0)),
      Expr::Eq(Expr::Attr(Side::kT, AttrId::kAttrRid), Expr::Const(3)),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrCid),
               Expr::Attr(Side::kT, AttrId::kAttrCid)),
      Expr::Eq(Expr::Mod(Expr::Attr(Side::kS, AttrId::kAttrId),
                         Expr::Const(4)),
               Expr::Mod(Expr::Attr(Side::kT, AttrId::kAttrId),
                         Expr::Const(4))),
      Expr::Eq(Expr::Attr(Side::kS, AttrId::kAttrU),
               Expr::Attr(Side::kT, AttrId::kAttrU))};
  AppendFilters(&clauses, design);
  query::JoinQuery q;
  q.where = Expr::AndAll(clauses);
  q.window.size = window;
  ASPEN_RETURN_NOT_OK(w.Finalize(std::move(q)));
  return w;
}

Result<Workload> Workload::MakeQuery3(const net::Topology* topology,
                                      int window, uint64_t seed) {
  Workload w(topology, seed);
  w.default_params_ = SelectivityParams{1.0, 1.0, 0.2};
  w.trace_ = std::make_shared<IntelTrace>(*topology, seed ^ 0x1A7EB);
  std::vector<ExprPtr> clauses{
      Expr::Lt(Expr::Dist(), Expr::Const(50)),  // 5m in decimeters
      Expr::Lt(Expr::Attr(Side::kS, AttrId::kAttrId),
               Expr::Attr(Side::kT, AttrId::kAttrId)),
      Expr::Gt(Expr::Abs(Expr::Sub(Expr::Attr(Side::kS, AttrId::kAttrV),
                                   Expr::Attr(Side::kT, AttrId::kAttrV))),
               Expr::Const(1000))};
  query::JoinQuery q;
  q.where = Expr::AndAll(clauses);
  q.window.size = window;
  ASPEN_RETURN_NOT_OK(w.Finalize(std::move(q)));
  return w;
}

Result<Workload> Workload::FromQuery(const net::Topology* topology,
                                     query::JoinQuery query,
                                     SelectivityParams params, uint64_t seed) {
  Workload w(topology, seed);
  w.default_params_ = params;
  std::vector<std::pair<Side, int>> attrs;
  if (query.where != nullptr) query.where->CollectAttrs(&attrs);
  for (const auto& [side, attr] : attrs) {
    if (attr == AttrId::kAttrV) {
      w.trace_ = std::make_shared<IntelTrace>(*topology, seed ^ 0x1A7EB);
      break;
    }
  }
  ASPEN_RETURN_NOT_OK(w.Finalize(std::move(query)));
  return w;
}

// ---- static pre-evaluation ------------------------------------------------

bool Workload::SEligible(net::NodeId id) const {
  return analysis_.SEligible(statics_.tuple(id));
}

bool Workload::TEligible(net::NodeId id) const {
  return analysis_.TEligible(statics_.tuple(id));
}

std::vector<net::NodeId> Workload::SNodes() const {
  std::vector<net::NodeId> out;
  for (net::NodeId i = 0; i < topology_->num_nodes(); ++i) {
    if (SEligible(i)) out.push_back(i);
  }
  return out;
}

std::vector<net::NodeId> Workload::TNodes() const {
  std::vector<net::NodeId> out;
  for (net::NodeId i = 0; i < topology_->num_nodes(); ++i) {
    if (TEligible(i)) out.push_back(i);
  }
  return out;
}

bool Workload::StaticPairJoins(net::NodeId s, net::NodeId t) const {
  if (!SEligible(s) || !TEligible(t)) return false;
  const query::Tuple& st = statics_.tuple(s);
  const query::Tuple& tt = statics_.tuple(t);
  if (analysis_.primary.has_value()) {
    const auto& p = *analysis_.primary;
    if (p.region_radius_dm.has_value()) {
      double dx = st[AttrId::kAttrPosX] - tt[AttrId::kAttrPosX];
      double dy = st[AttrId::kAttrPosY] - tt[AttrId::kAttrPosY];
      if (dx * dx + dy * dy >= static_cast<double>(*p.region_radius_dm) *
                                   (*p.region_radius_dm)) {
        return false;
      }
    } else {
      int32_t probe = p.probe_expr->Eval(&st, nullptr);
      int32_t target = p.target_expr->Eval(&tt, nullptr);
      if (probe != target) return false;
    }
  }
  return analysis_.SecondaryStaticPass(st, tt);
}

std::vector<std::pair<net::NodeId, net::NodeId>> Workload::AllJoinPairs()
    const {
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  auto s_nodes = SNodes();
  auto t_nodes = TNodes();
  const auto& primary = analysis_.primary;
  if (primary.has_value() && primary->probe_expr != nullptr &&
      primary->target_expr != nullptr) {
    // Equality primary: a pair can only join when probe(s) == target(t), so
    // each s scans just the T nodes carrying its key. Sorting by (key, id)
    // keeps each key's T nodes in ascending id order, which reproduces the
    // nested loop's output order exactly.
    std::vector<std::pair<int32_t, net::NodeId>> keyed;
    keyed.reserve(t_nodes.size());
    for (net::NodeId t : t_nodes) {
      keyed.emplace_back(*TJoinKey(t), t);
    }
    std::sort(keyed.begin(), keyed.end());
    for (net::NodeId s : s_nodes) {
      const int32_t key = *SJoinKey(s);
      auto it = std::lower_bound(keyed.begin(), keyed.end(),
                                 std::make_pair(key, INT32_MIN));
      for (; it != keyed.end() && it->first == key; ++it) {
        const net::NodeId t = it->second;
        if (s != t && StaticPairJoins(s, t)) out.emplace_back(s, t);
      }
    }
    return out;
  }
  for (net::NodeId s : s_nodes) {
    for (net::NodeId t : t_nodes) {
      if (s != t && StaticPairJoins(s, t)) out.emplace_back(s, t);
    }
  }
  return out;
}

std::optional<int32_t> Workload::SJoinKey(net::NodeId id) const {
  if (!analysis_.primary.has_value() ||
      analysis_.primary->probe_expr == nullptr) {
    return std::nullopt;
  }
  const query::Tuple& st = statics_.tuple(id);
  return analysis_.primary->probe_expr->Eval(&st, nullptr);
}

std::optional<int32_t> Workload::TJoinKey(net::NodeId id) const {
  if (!analysis_.primary.has_value() ||
      analysis_.primary->target_expr == nullptr) {
    return std::nullopt;
  }
  const query::Tuple& tt = statics_.tuple(id);
  return analysis_.primary->target_expr->Eval(&tt, nullptr);
}

// ---- per-node / temporal selectivity --------------------------------------

void Workload::SetNodeParams(net::NodeId id, SelectivityParams params) {
  if (!node_params_[id].has_value()) ++num_node_overrides_;
  node_params_[id] = params;
  node_filters_valid_ = false;
}

void Workload::SetGlobalSwitch(int cycle, SelectivityParams params) {
  switch_cycle_ = cycle;
  switch_params_ = params;
}

const SelectivityParams& Workload::ParamsAt(net::NodeId id, int cycle) const {
  if (cycle >= switch_cycle_) return switch_params_;
  if (node_params_[id].has_value()) return *node_params_[id];
  return default_params_;
}

uint64_t Workload::GenerationDigest() const {
  uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  auto mix_params = [&mix](const SelectivityParams& p) {
    for (double d : {p.sigma_s, p.sigma_t, p.sigma_st}) {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(d), "double is 64-bit");
      std::memcpy(&bits, &d, sizeof(bits));
      mix(bits);
    }
  };
  mix(seed_);
  mix_params(default_params_);
  for (size_t id = 0; id < node_params_.size(); ++id) {
    if (!node_params_[id].has_value()) continue;
    mix(id);
    mix_params(*node_params_[id]);
  }
  mix(static_cast<uint64_t>(switch_cycle_));
  if (switch_cycle_ != INT32_MAX) mix_params(switch_params_);
  return h;
}

const SelectivityParams* Workload::UniformParamsAt(int cycle) const {
  // Past the global switch every node uses switch_params_ (ParamsAt ignores
  // overrides there); below it only override-free workloads are uniform.
  if (cycle >= switch_cycle_) return &switch_params_;
  if (num_node_overrides_ == 0) return &default_params_;
  return nullptr;
}

const FilterDesign& Workload::FilterFor(const SelectivityParams& p) const {
  std::array<int, 3> key{p.UDomain(), CeilInverse(p.sigma_s),
                         CeilInverse(p.sigma_t)};
  for (const auto& [k, v] : filter_cache_) {
    if (k == key) return v;
  }
  filter_cache_.emplace_back(key, DesignFilters(p));
  return filter_cache_.back().second;
}

void Workload::WarmFilterCache() const {
  // Inserts a design for every SelectivityParams a ParamsAt() call can
  // currently return: the default, per-node overrides, and the global
  // switch target. Afterwards concurrent FilterFor() calls are pure cache
  // hits — no mutation, no reference invalidation — which is what makes
  // PassSFilter/PassTFilter safe from sharded sample workers.
  (void)FilterFor(default_params_);
  // Overrides are only ever added, and each addition invalidates the
  // verdict table, so a valid table means their designs are cached: walk
  // the n override slots only while there is an override and no table.
  if (num_node_overrides_ > 0 && !node_filters_valid_) {
    for (const auto& override_params : node_params_) {
      if (override_params.has_value()) (void)FilterFor(*override_params);
    }
  }
  if (switch_cycle_ != INT32_MAX) (void)FilterFor(switch_params_);
  // Tabulate the per-node verdict table used by the override path of
  // PassFilters, hoisting the ParamsAt + FilterFor resolution out of the
  // per-sample loop. Below the global switch ParamsAt(id, cycle) is
  // cycle-independent, so one row per node covers every pre-switch cycle.
  if (num_node_overrides_ > 0 && !node_filters_valid_) {
    node_filters_.resize(node_params_.size());
    for (size_t id = 0; id < node_params_.size(); ++id) {
      const SelectivityParams& p =
          node_params_[id].has_value() ? *node_params_[id] : default_params_;
      const FilterDesign& d = FilterFor(p);
      node_filters_[id] = {d.pass_mask_s, d.pass_mask_t,
                           static_cast<uint64_t>(p.UDomain())};
    }
    node_filters_valid_ = true;
  }
}

// ---- sampling ---------------------------------------------------------------

query::Tuple Workload::Sample(net::NodeId id, int cycle) const {
  query::Tuple t;
  SampleInto(id, cycle, &t);
  return t;
}

void Workload::SampleInto(net::NodeId id, int cycle,
                          query::Tuple* out) const {
  SampleWithParams(id, cycle, ParamsAt(id, cycle), out);
}

void Workload::SampleWithParams(net::NodeId id, int cycle,
                                const SelectivityParams& p,
                                query::Tuple* out) const {
  query::Tuple& t = *out;
  t = statics_.tuple(id);  // copy-assign reuses the caller's capacity
  const int domain = p.UDomain();
  // Counter-hash draws keep the trace a pure function of (node, cycle).
  uint64_t h = routing::HashKey(static_cast<int32_t>(cycle), seed_ ^ (id * 0x9E3779B9ULL));
  t[AttrId::kAttrU] = static_cast<int32_t>(h % domain);
  t[AttrId::kAttrV] =
      trace_ != nullptr ? trace_->Humidity(id, cycle) : 0;
  t[AttrId::kAttrSeq] = cycle & 0x7FFF;
  t[AttrId::kAttrLocalTime] = cycle & 0x7FFF;
  t[AttrId::kAttrTemp] =
      200 + static_cast<int32_t>(routing::HashKey(cycle, seed_ ^ id ^ 0x77) % 80);
  t[AttrId::kAttrBattery] = 2900;
  t[AttrId::kAttrMemFree] = 4096;
}

void Workload::SampleBatchInto(const net::NodeId* ids, int count, int cycle,
                               query::Tuple* out) const {
  if (const SelectivityParams* uni = UniformParamsAt(cycle)) {
    // One domain lookup for the whole batch; the draws are unchanged.
    for (int i = 0; i < count; ++i) {
      SampleWithParams(ids[i], cycle, *uni, &out[i]);
    }
    return;
  }
  for (int i = 0; i < count; ++i) SampleInto(ids[i], cycle, &out[i]);
}

bool Workload::PassSFilter(net::NodeId id, const query::Tuple& tuple,
                           int cycle) const {
  return FilterFor(ParamsAt(id, cycle)).PassS(tuple[AttrId::kAttrU]);
}

bool Workload::PassTFilter(net::NodeId id, const query::Tuple& tuple,
                           int cycle) const {
  return FilterFor(ParamsAt(id, cycle)).PassT(tuple[AttrId::kAttrU]);
}

void Workload::PassFilters(const net::NodeId* ids, int count, int cycle,
                           uint64_t* s_bits, uint64_t* t_bits) const {
  const int words = (count + 63) / 64;
  const uint64_t seed = seed_;
  const int32_t c = static_cast<int32_t>(cycle);
  if (const SelectivityParams* uni = UniformParamsAt(cycle)) {
    // Fast path: one design for the batch. The u draw below is the exact
    // SampleInto expression, and the pass masks tabulate PassS/PassT over
    // the whole domain, so each bit equals the scalar filter verdict. The
    // verdicts accumulate block-wise into word-local registers — one store
    // per 64 ids — and the inner body is branch-free (the counter hash is
    // inline, the predicate two mask tests), so the compiler can vectorize.
    const FilterDesign& d = FilterFor(*uni);
    const uint64_t domain = static_cast<uint64_t>(uni->UDomain());
    const uint64_t mask_s = d.pass_mask_s;
    const uint64_t mask_t = d.pass_mask_t;
    for (int w = 0; w < words; ++w) {
      const int base = w << 6;
      const int n = count - base < 64 ? count - base : 64;
      uint64_t sw = 0, tw = 0;
      for (int j = 0; j < n; ++j) {
        const uint64_t h =
            routing::HashKey(c, seed ^ (ids[base + j] * 0x9E3779B9ULL));
        const uint64_t u = h % domain;
        sw |= ((mask_s >> u) & 1ULL) << j;
        tw |= ((mask_t >> u) & 1ULL) << j;
      }
      s_bits[w] = sw;
      t_bits[w] = tw;
    }
    return;
  }
  if (node_filters_valid_) {
    // Per-node overrides live with a warm verdict table: the node's masks
    // and domain come from one indexed load instead of a ParamsAt branch
    // plus a FilterFor cache scan per sample. Valid for every cycle here —
    // UniformParamsAt covers cycle >= switch_cycle_, so this path only
    // runs below the switch, where the table is cycle-independent.
    for (int w = 0; w < words; ++w) {
      const int base = w << 6;
      const int n = count - base < 64 ? count - base : 64;
      uint64_t sw = 0, tw = 0;
      for (int j = 0; j < n; ++j) {
        const net::NodeId id = ids[base + j];
        const NodeFilter& f = node_filters_[id];
        const uint64_t h = routing::HashKey(c, seed ^ (id * 0x9E3779B9ULL));
        const uint64_t u = h % f.domain;
        sw |= ((f.mask_s >> u) & 1ULL) << j;
        tw |= ((f.mask_t >> u) & 1ULL) << j;
      }
      s_bits[w] = sw;
      t_bits[w] = tw;
    }
    return;
  }
  // Cold fallback (no WarmFilterCache since the last override): resolve the
  // design per node through the memo cache.
  std::fill_n(s_bits, words, 0ULL);
  std::fill_n(t_bits, words, 0ULL);
  for (int i = 0; i < count; ++i) {
    const SelectivityParams& p = ParamsAt(ids[i], cycle);
    const FilterDesign& d = FilterFor(p);
    const uint64_t h = routing::HashKey(c, seed ^ (ids[i] * 0x9E3779B9ULL));
    const uint64_t u = h % static_cast<uint64_t>(p.UDomain());
    s_bits[i >> 6] |= ((d.pass_mask_s >> u) & 1ULL) << (i & 63);
    t_bits[i >> 6] |= ((d.pass_mask_t >> u) & 1ULL) << (i & 63);
  }
}

bool Workload::TuplesJoin(const query::Tuple& s, const query::Tuple& t) const {
  for (const auto& clause : analysis_.static_join) {
    if (!clause->EvalBool(&s, &t)) return false;
  }
  return analysis_.DynamicJoinPass(s, t);
}

// ---- wire sizes -------------------------------------------------------------

int Workload::DataBytes() const {
  return query::Schema::WireBytes(data_attrs_);
}

int Workload::ResultBytes() const {
  return query::Schema::WireBytes(query_.projected_attrs);
}

}  // namespace workload
}  // namespace aspen
