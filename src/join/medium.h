// Shared radio medium for concurrent queries — the one way an executor is
// hosted, whether as a long-running query *service* or as the one-query
// medium core::RunExperiment builds for a batch run.
//
// The paper's introduction motivates minimizing resource consumption
// "in case of multiple concurrent queries". SharedMedium owns one Network
// and one sim::CycleScheduler, dispatches deliveries/drops/snoops to the
// owning executor by the query id stamped on every message, and hosts each
// executor as a participant on the scheduler. Traffic accounting is
// medium-wide — the combined load of concurrent queries, including
// cross-query packet merging at relay nodes, is measured exactly once —
// while per-query counters isolate each query's own share.
//
// Query lifecycle under churn (see DESIGN.md "Query lifecycle"):
//  - The scheduler exists from construction (scenario drivers AttachFront
//    before the first query), on the sampling clock fixed by
//    MediumOptions::sample_interval.
//  - TryAddQuery admits a query at any time, including mid-run from a
//    scenario event: a query admitted during the cycle-N sample phase
//    samples at cycle N. Initiate() is per-executor and may run mid-run.
//  - RemoveQuery finalizes the query's per-query counters into a retained
//    ledger, tears the executor down (JoinExecutor::Shutdown releases
//    pooled payload references, flushes windows, and retires its interned
//    routes), and detaches it from the scheduler. Straggler frames of a
//    departed query are ignored by the dispatch handlers and terminate
//    normally on the air.
//  - Query ids are recycled, but never while a frame stamped with the id
//    is still in flight, and the id's traffic counters are zeroed at
//    reuse — a new tenant never inherits a predecessor's traffic.
//  - The medium participates in its own scheduler to run the data plane's
//    epoch-safe route garbage collection: at any observation point where
//    no frame is in flight, routes retired by departed (or re-planned)
//    queries are swept and their ids/storage recycled, keeping route-table
//    occupancy proportional to the live query set.
//  - The routing substrate is deployment-time state owned by the medium:
//    one primary routing tree for every query, and one Innet exploration
//    substrate per (workload, num_trees, summary_type) in use, shared by
//    its co-resident queries and freed with the last of them.

#ifndef ASPEN_JOIN_MEDIUM_H_
#define ASPEN_JOIN_MEDIUM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "join/executor.h"
#include "net/network.h"
#include "routing/multi_tree.h"
#include "routing/routing_tree.h"
#include "sim/cycle_scheduler.h"
#include "workload/workload.h"

namespace aspen {
namespace join {

/// \brief Service-level configuration of a SharedMedium.
struct MediumOptions {
  /// Run-shape knobs (common/run_knobs.h), shared with ExecutorOptions and
  /// core::ServiceOptions. `knobs.sample_interval` is the medium's one
  /// sampling clock (every admitted query's window.sample_interval must
  /// equal it); `knobs.shards` and `knobs.pipeline_depth` configure the
  /// scheduler's worker-parallel phases and cross-cycle sample pipelining,
  /// with byte-identical results for every value. The medium itself
  /// ignores the adaptation knobs (`reopt_interval`, `reopt_threshold`,
  /// `migration`, `counter_reset_interval`) — re-optimization is per query
  /// (ExecutorOptions::knobs).
  common::RunKnobs knobs;
  /// Permit RunCycles with zero live queries. A service run idles between
  /// arrivals (scenario drivers still tick); the batch default keeps the
  /// historical no-queries error.
  bool allow_idle = false;
};

/// \brief Rejects knob values no run can execute, as InvalidArgument: a
/// negative re-optimization or counter-reset interval (0 means frozen or
/// never reset), or a routing substrate width or sampling clock below 1.
/// Shard count and pipeline depth are clamped by the scheduler, never
/// rejected. Called by TryAddQuery and by the front doors that build
/// a medium (core::RunExperiment, core::ServiceRunner::Create).
Status ValidateOptions(const ExecutorOptions& options,
                       const MediumOptions& medium);

/// The network options one query's configuration implies: its radio (loss,
/// retries, seed), packet merging for Innet combining, and snooping for
/// path collapsing on motes.
net::NetworkOptions NetworkOptionsFor(const ExecutorOptions& options);

/// The medium options that host `workload` alone with `options`' run-shape
/// knobs on the workload's own sampling clock — the medium
/// core::RunExperiment builds.
MediumOptions SoloMediumOptions(const workload::Workload& workload,
                                const ExecutorOptions& options);

/// \brief One network shared by several concurrently-executing queries,
/// with dynamic admission and teardown.
class SharedMedium : private sim::CycleParticipant {
 public:
  /// `topology` must outlive the medium. The scheduler is constructed
  /// eagerly (never null), so scenario drivers can attach before the first
  /// query is admitted.
  SharedMedium(const net::Topology* topology, net::NetworkOptions options,
               MediumOptions medium_options = MediumOptions());
  ~SharedMedium() override;

  /// \brief Creates an executor for `workload` attached to this medium.
  /// The workload must be over the medium's topology, use the medium's
  /// sample_interval (one scheduler, one sampling clock), and outlive the
  /// returned executor; the executor is owned by the medium. Violations
  /// return an error — nothing is registered on failure. Callable mid-run:
  /// the query joins the current cycle's phases. The caller initiates the
  /// query (directly or via InitiateAll).
  Result<JoinExecutor*> TryAddQuery(const workload::Workload* workload,
                                    ExecutorOptions options);

  /// \brief A self-contained admission request: the query's SQL text plus
  /// the synthetic-workload parameters behind it. The medium parses the
  /// SQL (query::ParseQuery), builds the workload, owns it for the query's
  /// lifetime, and admits it — the front door that makes the query
  /// parser/analyzer output admissible without the caller managing
  /// Workload lifetimes.
  struct QuerySpec {
    std::string sql;
    /// True generation parameters of the synthetic workload.
    workload::SelectivityParams params;
    uint64_t seed = 1;
    ExecutorOptions options;
  };

  /// \brief Parses `spec.sql`, builds a medium-owned workload from it and
  /// admits the query through the same validated entry point as the
  /// workload-pointer overload (same clock/topology invariants, nothing
  /// registered on failure). The workload is freed when the query is
  /// removed.
  Result<JoinExecutor*> TryAddQuery(const QuerySpec& spec);

  /// CHECK-failing convenience wrapper around TryAddQuery for callers with
  /// statically-known-compatible workloads. On failure the underlying
  /// Status text is logged and reported verbatim by the aborting check.
  JoinExecutor* AddQuery(const workload::Workload* workload,
                         ExecutorOptions options);

  /// \brief Removes a live query: snapshots its per-query stats into the
  /// ledger, shuts the executor down (windows flushed, pooled payload
  /// references dropped, interned routes retired for the epoch-safe
  /// sweep), detaches it and frees it. Its query id is recycled once no
  /// in-flight frame still carries it. Callable mid-run (query departure
  /// events); a query removed during the cycle-N sample phase does not
  /// sample at cycle N.
  Status RemoveQuery(int query_id);

  /// The shared cycle scheduler (never null; constructed with the medium);
  /// scenario drivers attach here with AttachFront.
  sim::CycleScheduler* scheduler() { return &sched_; }

  /// \brief Initiates every registered query not yet initiated (in query-id
  /// order; their initiation traffic accumulates on the shared stats).
  Status InitiateAll();

  /// \brief Runs `n` sampling cycles with all queries interleaved on the
  /// medium, driven by the shared cycle scheduler. Requires at least one
  /// live query unless MediumOptions::allow_idle is set.
  Status RunCycles(int n);

  /// \brief Final metrics of one departed query, retained after its
  /// executor (and possibly its query id) is recycled.
  struct QueryRecord {
    int query_id = 0;
    int admitted_cycle = 0;
    int removed_cycle = 0;
    RunStats stats;
  };

  /// Finalized stats of every removed query, in removal order.
  const std::vector<QueryRecord>& ledger() const { return ledger_; }

  net::Network& network() { return net_; }
  const net::TrafficStats& stats() const { return net_.stats(); }
  const MediumOptions& medium_options() const { return medium_opts_; }

  /// \brief One cross-query shared placement (tree_mode == kShared): the
  /// owning query evaluates the pair once and fans results out to every
  /// subscriber. Entries keep stable indices (owner placements cache them);
  /// freed slots (owner == 0) are recycled at the next registration.
  struct SharedEntry {
    /// Fingerprint: normalized predicate + window shape + workload
    /// identity + algorithm options + pair key (DESIGN.md "Cross-query
    /// work sharing").
    uint64_t fp = 0;
    PairKey pair;
    int owner = 0;  ///< owning query id; 0 = free slot
    std::vector<int> subscribers;  ///< subscribed query ids, ascending
  };
  /// The sharing registry (diagnostics/tests; includes free slots).
  const std::vector<SharedEntry>& shared_entries() const {
    return shared_entries_;
  }
  /// Number of placements currently served for more than one query.
  int num_shared_placements() const;
  /// Live (admitted, not removed) query count.
  int num_queries() const { return live_queries_; }
  /// Innet exploration substrates alive on this medium: one per (workload,
  /// num_trees, summary_type) that a live query explores with.
  int num_substrates() const { return static_cast<int>(substrates_.size()); }
  /// Total queries ever admitted (ledger entries + live queries).
  int total_admitted() const { return total_admitted_; }
  /// The live executor for `query_id`; CHECK-fails on a dead or unknown id.
  JoinExecutor& executor(int query_id);
  /// The live executor for `query_id`, or nullptr.
  JoinExecutor* FindExecutor(int query_id);
  /// Ids of every live query, ascending.
  std::vector<int> live_query_ids() const;

 private:
  friend class JoinExecutor;

  // -- scheduler participation (route GC at epoch boundaries) ---------------
  Status OnDeliver(int cycle) override;

  /// Smallest recyclable id with no in-flight frames, else a fresh one.
  int AcquireQueryId();

  // -- shared routing substrate ---------------------------------------------
  /// The base-rooted routing tree: tree-to-root frames follow it, and every
  /// query reads its depths and tree paths from it. Built at construction.
  const routing::RoutingTree& primary_tree() const { return primary_; }
  /// The scalar attribute index under which an Innet substrate holds the
  /// workload's primary join key (its only indexed attribute).
  static constexpr int kJoinKeyAttr = 0;
  /// The Innet exploration substrate for `workload` (which must have a
  /// routable primary join clause) at `options.num_trees` and
  /// `options.summary_type`: the live one when a co-resident query already
  /// holds it, else built now. The caller's reference keeps it alive; the
  /// medium only remembers it weakly, so it dies with its last holder.
  /// Never mutated after it is built, so sharing changes no simulated
  /// byte — exploration charges each caller's own traffic.
  Result<std::shared_ptr<const routing::MultiTree>> InnetSubstrate(
      const workload::Workload& workload, const ExecutorOptions& options)
      ASPEN_REQUIRES_SEQUENTIAL;

  // -- cross-query placement sharing (tree_mode == kShared) -----------------
  /// Admission hook, called from JoinExecutor::Initiate after InitCommon:
  /// each of `exec`'s pairs either attaches as a subscriber to a live
  /// identical placement (and is suppressed from `exec`'s data plane) or
  /// registers as a new owner for later arrivals to find.
  void ClaimPairs(JoinExecutor* exec) ASPEN_REQUIRES_SEQUENTIAL;
  /// Owner fan-out: books `count` results into every subscriber of
  /// `entry`. Steady-state hot path — allocates nothing.
  void FanOutSharedResult(int32_t entry, int count, int sample_cycle)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// Removal hook, called from RemoveQuery *before* the executor shuts
  /// down: drops `query_id` as a subscriber everywhere, and for owned
  /// entries promotes the smallest subscriber (adopting placement
  /// geometry, routes and window state while the departing owner still
  /// holds its references) or frees the entry.
  void DetachShared(int query_id) ASPEN_REQUIRES_SEQUENTIAL;
  /// FNV-1a over everything about `exec` that shapes a pair's results,
  /// the pair itself excepted; ClaimPairs mixes each pair key in.
  uint64_t FingerprintQuery(const JoinExecutor& exec) const;
  /// Live registry entry serving (fp, pair), or -1.
  int32_t FindSharedEntry(uint64_t fp, const PairKey& pair) const;
  int32_t AllocSharedEntry();
  void FreeSharedEntry(int32_t e);

  const net::Topology* topology_;
  net::Network net_;
  routing::RoutingTree primary_;
  MediumOptions medium_opts_;
  /// Dense executor table indexed by query id (slot 0 unused; dead slots
  /// null). The per-cycle dispatch path is a single array index.
  std::vector<std::unique_ptr<JoinExecutor>> executors_;
  /// Admission cycle per query id (parallel to executors_).
  std::vector<int> admitted_cycle_;
  /// Ids of removed queries awaiting reuse, ascending.
  std::vector<int> retired_ids_;
  /// Workloads built (and owned) by the QuerySpec admission path, keyed by
  /// query id; freed when the owning query is removed.
  std::vector<std::pair<int, std::unique_ptr<workload::Workload>>>
      owned_workloads_;
  std::vector<QueryRecord> ledger_;
  /// One entry per live Innet substrate, scanned by key equality (a
  /// handful of entries; never ordered by pointer).
  struct SubstrateEntry {
    const workload::Workload* workload = nullptr;
    int num_trees = 0;
    routing::SummaryType summary_type = routing::SummaryType::kBloom;
    std::weak_ptr<const routing::MultiTree> substrate;
  };
  std::vector<SubstrateEntry> substrates_;
  /// Sharing registry (stable indices) and its admission-time lookup
  /// index, sorted by (fingerprint, entry) — content-driven, never hashed.
  std::vector<SharedEntry> shared_entries_;
  std::vector<int32_t> free_shared_entries_;
  std::vector<std::pair<uint64_t, int32_t>> shared_index_;
  int live_queries_ = 0;
  int total_admitted_ = 0;
  int next_query_id_ = 1;
  /// Declared last: built after the network it drives, and destroyed
  /// first, joining any in-flight stage work while every executor is
  /// still alive.
  sim::CycleScheduler sched_;
};

}  // namespace join
}  // namespace aspen

#endif  // ASPEN_JOIN_MEDIUM_H_
