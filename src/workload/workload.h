// Experiment workloads: binds a topology, static attribute assignment,
// a Table 2 query, and deterministic per-(node, cycle) sampling streams.
//
// Sampling is a pure function of (node, cycle, seed) so that every join
// algorithm executed against the same workload sees the *identical* data
// trace — the paper runs all algorithms on the same source data traces and
// topologies (Appendix F).

#ifndef ASPEN_WORKLOAD_WORKLOAD_H_
#define ASPEN_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "net/topology.h"
#include "query/analyzer.h"
#include "workload/intel_trace.h"
#include "workload/selectivity.h"
#include "workload/static_config.h"

namespace aspen {
namespace workload {

/// \brief A fully-specified experiment workload.
class Workload {
 public:
  /// Query 0 (Table 2): 1:1 join between `num_pairs` random (s, t) node
  /// pairs on S.u = T.u. Pairing is established statically by assigning
  /// matching name_id values (the paper's sigma_id=random endpoint choice).
  static Result<Workload> MakeQuery0(const net::Topology* topology,
                                     SelectivityParams params, int num_pairs,
                                     int window, uint64_t seed);

  /// Query 1 (Table 2): m:n join, uniform endpoints:
  /// S.id < 25, T.id > 50, S.x = T.y + 5 AND S.u = T.u.
  static Result<Workload> MakeQuery1(const net::Topology* topology,
                                     SelectivityParams params, int window,
                                     uint64_t seed);

  /// Query 2 (Table 2): perimeter join (Query P):
  /// S.rid = 0, T.rid = 3, S.cid = T.cid AND S.id%4 = T.id%4 AND S.u = T.u.
  static Result<Workload> MakeQuery2(const net::Topology* topology,
                                     SelectivityParams params, int window,
                                     uint64_t seed);

  /// Query 3 (Table 2): region-based join on the Intel-like trace (Query R):
  /// Dst < 5m AND s.id < t.id AND abs(s.v - t.v) > 1000.
  static Result<Workload> MakeQuery3(const net::Topology* topology,
                                     int window, uint64_t seed);

  /// \brief Binds an arbitrary (e.g. parsed) query to a deployment. The u
  /// attribute is generated from `params`; the humidity trace is attached
  /// when the query references v.
  static Result<Workload> FromQuery(const net::Topology* topology,
                                    query::JoinQuery query,
                                    SelectivityParams params, uint64_t seed);

  const net::Topology& topology() const { return *topology_; }
  const StaticConfig& statics() const { return statics_; }
  const query::JoinQuery& join_query() const { return query_; }
  const query::QueryAnalysis& analysis() const { return analysis_; }
  uint64_t seed() const { return seed_; }

  // ---- static pre-evaluation --------------------------------------------

  bool SEligible(net::NodeId id) const;
  bool TEligible(net::NodeId id) const;
  std::vector<net::NodeId> SNodes() const;
  std::vector<net::NodeId> TNodes() const;

  /// True iff (s, t) satisfy the primary and secondary *static* join
  /// clauses (both must also be eligible). Ground truth for exploration.
  bool StaticPairJoins(net::NodeId s, net::NodeId t) const;

  /// All statically-joining (s, t) pairs.
  std::vector<std::pair<net::NodeId, net::NodeId>> AllJoinPairs() const;

  /// Join-key value for grouped (GHT/DHT) routing: the primary equality
  /// clause's probe/target value at a node. Unset for region primaries.
  std::optional<int32_t> SJoinKey(net::NodeId id) const;
  std::optional<int32_t> TJoinKey(net::NodeId id) const;

  // ---- per-node / temporal selectivity control (Section 6) ---------------

  /// Overrides the data-generation parameters of one node.
  void SetNodeParams(net::NodeId id, SelectivityParams params);

  /// From `cycle` on, every node switches to `params` (Figure 12(b)).
  void SetGlobalSwitch(int cycle, SelectivityParams params);

  /// The parameters governing a node's data generation at a cycle.
  const SelectivityParams& ParamsAt(net::NodeId id, int cycle) const;

  /// A digest of every generation input the workload holds now: the seed,
  /// the default parameters, each per-node override and the global switch.
  /// Over one topology and query, workloads with equal digests generate
  /// identical sample streams; a later parameter change alters the digest.
  uint64_t GenerationDigest() const;

  // ---- sampling -----------------------------------------------------------

  /// The full sensor tuple sampled by `id` at `cycle`. Pure function.
  query::Tuple Sample(net::NodeId id, int cycle) const;

  /// Sample() into a caller-owned tuple, reusing its capacity (the per-node
  /// hot path samples thousands of times per run; this variant never
  /// allocates once `out` is warm).
  void SampleInto(net::NodeId id, int cycle, query::Tuple* out) const;

  /// SampleInto() over `count` node ids: out[i] receives ids[i]'s tuple,
  /// bit-for-bit what SampleInto(ids[i], cycle, &out[i]) writes. Hoists the
  /// per-node parameter lookup when one SelectivityParams governs every
  /// node at `cycle` (no overrides, or past the global switch).
  void SampleBatchInto(const net::NodeId* ids, int count, int cycle,
                       query::Tuple* out) const;

  /// Batched filter evaluation over `count` node ids: sets bit i of
  /// s_bits/t_bits (64 ids per word, (count + 63) / 64 words) iff ids[i]'s
  /// sample at `cycle` passes the S (resp. T) filter — exactly
  /// PassS/TFilter(ids[i], Sample(ids[i], cycle), cycle), without
  /// materializing the tuples. One FilterFor lookup for the whole batch on
  /// the uniform-params fast path; same thread-safety contract as
  /// PassS/TFilter (warm the cache first).
  void PassFilters(const net::NodeId* ids, int count, int cycle,
                   uint64_t* s_bits, uint64_t* t_bits) const;

  /// Whether the sample passes the S-side (resp. T-side) dynamic selection
  /// (the hash-gate hP(u); always true for Query 3).
  ///
  /// Thread-safety: these memoize filter designs lazily, so concurrent
  /// calls are only safe after WarmFilterCache() has run since the last
  /// parameter mutation (the sharded sample phase warms per cycle).
  bool PassSFilter(net::NodeId id, const query::Tuple& tuple,
                   int cycle) const;
  bool PassTFilter(net::NodeId id, const query::Tuple& tuple,
                   int cycle) const;

  /// Precomputes the filter designs for every parameter set currently
  /// reachable through ParamsAt(), making subsequent PassS/TFilter calls
  /// read-only (and therefore safe from concurrent shard workers).
  void WarmFilterCache() const;

  /// All join clauses — secondary static plus dynamic — over a concrete
  /// tuple pair (the primary clause holds by construction for explored
  /// pairs but is re-checked here for grouped algorithms).
  bool TuplesJoin(const query::Tuple& s, const query::Tuple& t) const;

  // ---- wire sizes ---------------------------------------------------------

  /// Bytes of a producer data message (projected attributes + id + seq).
  int DataBytes() const;
  /// Bytes of one join result message.
  int ResultBytes() const;

 private:
  Workload(const net::Topology* topology, uint64_t seed);

  Status Finalize(query::JoinQuery query);
  const FilterDesign& FilterFor(const SelectivityParams& p) const;
  /// The one SelectivityParams governing *every* node at `cycle`, or
  /// nullptr when per-node overrides are live below the global switch.
  const SelectivityParams* UniformParamsAt(int cycle) const;
  /// SampleInto with the governing parameters already resolved.
  void SampleWithParams(net::NodeId id, int cycle, const SelectivityParams& p,
                        query::Tuple* out) const;

  const net::Topology* topology_;
  uint64_t seed_;
  StaticConfig statics_;
  query::JoinQuery query_;
  query::QueryAnalysis analysis_;
  std::shared_ptr<IntelTrace> trace_;  // only for Query 3

  SelectivityParams default_params_;
  std::vector<std::optional<SelectivityParams>> node_params_;
  /// Count of set node_params_ entries (0 = the batch fast path applies).
  int num_node_overrides_ = 0;
  int switch_cycle_ = INT32_MAX;
  SelectivityParams switch_params_;

  /// Memoized filter designs keyed by (domain, mod_s, mod_t).
  mutable std::vector<std::pair<std::array<int, 3>, FilterDesign>>
      filter_cache_;
  /// Per-node filter verdict table for the override path of PassFilters:
  /// the node's pass masks and u-domain, valid for every cycle below the
  /// global switch (ParamsAt is cycle-independent there). Built by
  /// WarmFilterCache(), invalidated by SetNodeParams(); same thread-safety
  /// contract as filter_cache_ (warm, then read-only).
  struct NodeFilter {
    uint64_t mask_s;
    uint64_t mask_t;
    uint64_t domain;
  };
  mutable std::vector<NodeFilter> node_filters_;
  mutable bool node_filters_valid_ = false;
  int data_attrs_ = 1;
};

}  // namespace workload
}  // namespace aspen

#endif  // ASPEN_WORKLOAD_WORKLOAD_H_
