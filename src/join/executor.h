// The join executor: initiates (explores, optimizes, places join nodes) and
// then drives windowed join execution over the simulated network for any of
// the paper's algorithms. One executor = one query on one workload.
//
// Every executor is hosted on a join::SharedMedium, alone (core::
// RunExperiment) or beside other queries. It is a sim::CycleParticipant:
// the medium's sim::CycleScheduler owns the clock and phase ordering, and
// the executor supplies the protocol logic for each phase. Node-local state
// (join windows, pair lists, send plans, multicast trees) exists only for
// the query's footprint — its producers, the base, its join sites and, under
// path collapsing, the path nodes whose flow tables snooping reads — in a
// compact NodeState table reached through an n-entry slot table, so a
// query's memory, admission and teardown scale with its pairs, not with the
// mesh. The executor is the single-process embodiment of the distributed
// protocol, with every message the protocol would send charged through the
// network simulator.

#ifndef ASPEN_JOIN_EXECUTOR_H_
#define ASPEN_JOIN_EXECUTOR_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "adapt/reopt.h"
#include "common/logging.h"
#include "common/phase.h"
#include "common/status.h"
#include "join/node_state.h"
#include "join/pair_state.h"
#include "join/payloads.h"
#include "join/types.h"
#include "net/network.h"
#include "opt/cost_model.h"
#include "opt/group.h"
#include "routing/content_address.h"
#include "routing/multi_tree.h"
#include "routing/routing_tree.h"
#include "sim/cycle_scheduler.h"
#include "sim/mailbox.h"
#include "workload/workload.h"

namespace aspen {
namespace join {

class SharedMedium;

/// \brief Runs one join query with one algorithm over one workload.
///
/// The sample and deliver phases implement the sharded split (see
/// sim::ShardPhaseParticipant): sampling stages pure per-node work into
/// per-shard scratch and commits the submissions in node order; delivery
/// probes each shard's own join sites concurrently and replays deferred
/// result emissions in canonical (side, producer, arrival, pair) order, so
/// runs are byte-identical for every shard count. Node state exists only
/// for the query's footprint (see `nodes_`). Executors are built only by
/// SharedMedium::TryAddQuery, so every one is attached to a medium.
class JoinExecutor : public sim::CycleParticipant,
                     public sim::ShardPhaseParticipant {
 public:
  ~JoinExecutor() override;

  JoinExecutor(const JoinExecutor&) = delete;
  JoinExecutor& operator=(const JoinExecutor&) = delete;

  /// \brief Runs initiation: exploration over the medium's routing
  /// substrate, cost-based placement, group optimization, multicast setup.
  /// Must be called exactly once before the medium runs a cycle.
  Status Initiate();

  /// \brief Tears the query down: drops buffered arrival payload
  /// references, flushes join windows and failover buffers, and releases
  /// every interned-route reference this query holds (send plans, relay
  /// routes, multicast trees), retiring the routes for the data plane's
  /// epoch-safe garbage collection. Idempotent; called by
  /// SharedMedium::RemoveQuery and by the destructor. After Shutdown the
  /// executor must not run further phases.
  Status Shutdown();

  /// \brief Snapshot of the run's metrics so far.
  RunStats Stats() const;

  // ---- introspection & fault injection ------------------------------------

  net::Network& network() { return *net_; }
  const net::Network& network() const { return *net_; }
  int current_cycle() const { return cycle_; }
  uint64_t results() const { return results_; }
  uint64_t migrations() const { return migrations_; }
  int query_id() const { return query_id_; }
  bool initiated() const { return initiated_; }

  /// The re-optimization controller: pass/migration counters at protocol
  /// granularity (planned() ticks at the announce cycle, completed() two
  /// cycles later — RunStats only carries the completions).
  const adapt::ReoptController& reopt() const { return reopt_; }

  /// All statically-joining pairs this executor serves.
  const std::vector<PairKey>& pairs() const { return pairs_; }

  /// \brief Placement of one pair (join node / at-base and the path used).
  struct PairPlacement {
    PairKey pair;
    bool at_base = true;
    net::NodeId join_node = 0;
    /// Exploration path s..t (empty for algorithms that do not explore).
    std::vector<net::NodeId> path;
    /// Index of join_node within path (-1 if not path-based).
    int path_index = -1;
    /// Estimates the current placement was computed with (a
    /// re-optimization pass compares fresh estimates against these).
    workload::SelectivityParams placed_with;
    /// The pairwise cost-model decision, before any group (MPO) override.
    bool pairwise_at_base = true;
    bool failed_over = false;
    /// Interned root->t distribution route (Yang+07 relay), built at init.
    net::RouteId route_from_root = net::kInvalidRoute;
    /// Cross-query placement sharing (tree_mode == kShared, attached to a
    /// medium). Subscriber side: the query id whose identical placement
    /// serves this pair (-1 = owned locally). A subscribed pair is removed
    /// from the node pair lists, so it samples, sends, probes and fails
    /// over nothing — results arrive through the owner's fan-out.
    int shared_owner = -1;
    /// Owner side: index into the medium's sharing registry once at least
    /// one subscriber rides this placement (-1 = sole consumer).
    int32_t shared_entry = -1;
  };

  /// All placements, sorted by pair key (contiguous; index with
  /// FindPlacement for a specific pair).
  const std::vector<PairPlacement>& placements() const { return placements_; }

  /// The placement of one pair, or nullptr if the pair is not served.
  const PairPlacement* FindPlacement(const PairKey& pair) const;

  /// Kills a node (it stops forwarding/acking); Section 7's recovery logic
  /// reacts through the drop handler.
  void FailNode(net::NodeId id) {
    // Fault injection is a sequential-phase event by definition.
    common::SequentialPhaseScope seq;
    net_->FailNode(id);
  }

 private:
  /// Messages are stamped with `query_id` and `medium` dispatches
  /// deliveries back; its scheduler drives the cycle phases. `workload`
  /// must outlive the executor.
  JoinExecutor(const workload::Workload* workload, ExecutorOptions options,
               SharedMedium* medium, int query_id);

  /// One buffered data arrival: the pooled payload `data` delivered at node
  /// `at` (the executor holds a payload reference until the deliver phase).
  /// Mailboxes are keyed by producer slot — ascending slot is ascending
  /// producer id — so the deliver phase applies arrivals in deterministic
  /// (producer, location) order.
  struct Arrival {
    net::NodeId at;
    net::PayloadHandle data;
  };

  // -- kernel phases (sim::CycleParticipant) ---------------------------------
  Status OnReoptimize(int cycle) override;
  Status OnLearn(int cycle) override;
  sim::ShardPhaseParticipant* sharded() override { return this; }

  // -- sharded phase split (sim::ShardPhaseParticipant) ----------------------
  void ConfigureSampleSlots(int slots) override;
  bool Ready() const override { return initiated_ && !shutdown_; }
  void OnSampleBegin(int cycle) override;
  /// The pure sample stage: batched filters + sampling of the shard's
  /// producers into the (shard, slot) slab. Reads only the workload (warm)
  /// and the shard's producer cache; failure filtering and the
  /// producer-local last-w rings moved to commit so a pipelined scheduler
  /// can run this for cycle N+1 during cycle N's transmit.
  void OnSampleStage(int cycle, int slot, int shard, net::NodeId begin,
                     net::NodeId end) ASPEN_REQUIRES_PIPELINE override;
  Status OnSampleCommit(int cycle, int slot) override;
  void OnDeliverBegin(int cycle) override;
  void OnDeliverShard(int cycle, int shard, net::NodeId begin,
                      net::NodeId end) override;
  Status OnDeliverCommit(int cycle) override;

  // -- initiation ------------------------------------------------------------
  Status InitCommon() ASPEN_REQUIRES_SEQUENTIAL;
  Status InitNaive() ASPEN_REQUIRES_SEQUENTIAL;
  Status InitBase() ASPEN_REQUIRES_SEQUENTIAL;
  Status InitYang07() ASPEN_REQUIRES_SEQUENTIAL;
  Status InitGht() ASPEN_REQUIRES_SEQUENTIAL;
  Status InitInnet() ASPEN_REQUIRES_SEQUENTIAL;
  /// Explores from every S producer and returns placements per pair.
  Status ExplorePairs() ASPEN_REQUIRES_SEQUENTIAL;
  void EnsureGroups() ASPEN_REQUIRES_SEQUENTIAL;
  void DecideGroupFor(const opt::JoinGroup& group, bool charge_traffic)
      ASPEN_REQUIRES_SEQUENTIAL;
  void RunGroupOpt(bool charge_traffic) ASPEN_REQUIRES_SEQUENTIAL;
  void BuildMulticastRoutes(bool charge_traffic) ASPEN_REQUIRES_SEQUENTIAL;

  // -- per-cycle data plane ----------------------------------------------------
  /// Rebuilds every producer's SendPlan (destinations + interned routes)
  /// from the placement table. Invoked lazily when `plans_dirty_`.
  void RebuildSendPlans() ASPEN_REQUIRES_SEQUENTIAL;
  void SendToBase(net::NodeId p, const query::Tuple& t, int cycle, bool as_s,
                  bool as_t) ASPEN_REQUIRES_SEQUENTIAL;
  void SendInnet(net::NodeId p, const query::Tuple& t, int cycle, bool as_s,
                 bool as_t) ASPEN_REQUIRES_SEQUENTIAL;
  void SendGht(net::NodeId p, const query::Tuple& t, int cycle, bool as_s,
               bool as_t) ASPEN_REQUIRES_SEQUENTIAL;
  void SendYang(net::NodeId p, const query::Tuple& t, int cycle, bool as_s,
                bool as_t) ASPEN_REQUIRES_SEQUENTIAL;

  /// Allocates a pooled DataPayload (one owned reference, transferred to
  /// the network on submit).
  net::PayloadHandle MakeData(net::NodeId p, const query::Tuple& t, int cycle,
                              bool as_s, bool as_t) ASPEN_REQUIRES_SEQUENTIAL;

  // -- arrival processing -------------------------------------------------------
  void OnDeliverMsg(const net::Message& msg, net::NodeId at);
  void OnDrop(const net::Message& msg, net::NodeId at, net::NodeId next);
  void OnSnoop(const net::Message& msg, net::NodeId snooper, net::NodeId from,
               net::NodeId to);
  void EmitResults(net::NodeId at, const PairKey& pair, int count,
                   int sample_cycle) ASPEN_REQUIRES_SEQUENTIAL;
  void DeliverResultAtBase(const PairKey& pair, int count, int sample_cycle)
      ASPEN_REQUIRES_SEQUENTIAL;

  // -- cross-query placement sharing (tree_mode == kShared on a medium) -------
  /// Books `count` results delivered through a sharing owner's fan-out
  /// into this query's result/delay accounting.
  void AccountSharedResult(int count, int sample_cycle)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// Detaches placement index `pi` from the data plane: the pair leaves
  /// both producers' pair lists, so it never samples, plans, probes or
  /// fails over — the sharing owner's single evaluation serves it.
  void SuppressSharedPair(int32_t pi) ASPEN_REQUIRES_SEQUENTIAL;
  /// Promotion on owner removal: copies the departing owner's placement
  /// geometry (join node, path, routes) and window state for `pair` into
  /// this executor, restores the pair into the node pair lists and
  /// rebuilds the affected producer routes. Runs while the old owner
  /// still holds its route references, so no retirement window opens.
  void AdoptSharedPlacement(JoinExecutor* old_owner, const PairKey& pair)
      ASPEN_REQUIRES_SEQUENTIAL;

  // -- footprint node state ------------------------------------------------
  /// The NodeState of footprint node `id` (producers, the base and every
  /// current join site always have one).
  NodeState& Node(net::NodeId id) {
    ASPEN_DCHECK(slot_of_[id] >= 0);
    return nodes_[slot_of_[id]];
  }
  const NodeState& Node(net::NodeId id) const {
    ASPEN_DCHECK(slot_of_[id] >= 0);
    return nodes_[slot_of_[id]];
  }
  /// The NodeState of `id`, or nullptr when `id` is outside the footprint.
  NodeState* FindNode(net::NodeId id) {
    const int32_t slot = slot_of_[id];
    return slot < 0 ? nullptr : &nodes_[slot];
  }
  /// Gives `id` a slot if it has none. Only phases that no pipelined sample
  /// stage overlaps may add slots: Initiate, the re-optimize and learn
  /// phases, and the churn hooks — never a delivery/drop/snoop handler or
  /// a shard pass. Appending moves no existing NodeState.
  NodeState& EnsureNode(net::NodeId id) ASPEN_REQUIRES_SEQUENTIAL;

  PairState& StateAt(net::NodeId at, const PairKey& pair)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// StateAt for concurrent shard passes: the touched site is recorded in
  /// the shard's scratch instead of the shared active-site list.
  PairState& StateAtShard(int shard, net::NodeId at, const PairKey& pair);
  PairState* FindState(net::NodeId at, const PairKey& pair);
  /// Registers `at` as a join site (deterministic state iteration order).
  void TouchSite(net::NodeId at) ASPEN_REQUIRES_SEQUENTIAL;
  /// Invokes fn(location, state) for every held state, (node, pair)
  /// ascending — the exact order the old global ordered map produced.
  template <typename Fn>
  void ForEachState(Fn&& fn) {
    for (net::NodeId at : active_sites_) {
      for (PairState& st : Node(at).states) fn(at, st);
    }
  }

  // -- re-optimization (Section 6) & failure ----------------------------------
  /// Moves a pair's windows between join locations, charging the transfer.
  void MoveState(const PairKey& pair, net::NodeId from, net::NodeId to,
                 bool charge) ASPEN_REQUIRES_SEQUENTIAL;
  /// The instant relocation: state and producer plans move at once.
  void MigratePair(PairPlacement* placement, bool new_at_base,
                   net::NodeId new_join, int new_index)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// One placement relocation in flight through the planned three-phase
  /// protocol: announced (producers notified, transfer route interned),
  /// transferring (window state shipped as a real kWindowTransfer message,
  /// send plans flipped at the next cycle boundary), complete (route
  /// reference released to the epoch GC). See DESIGN.md "Re-optimization
  /// (Section 6)".
  struct PlannedMigration {
    PairKey pair;
    bool new_at_base = true;
    net::NodeId new_join = 0;
    int new_index = -1;
    /// Interned old-site -> new-site route the window transfer travels;
    /// holds one owner reference from announce until completion/abort.
    net::RouteId transfer_route = net::kInvalidRoute;
    uint8_t phase = 0;  ///< 0 = announced, 1 = transfer in flight
  };

  /// Runs the work the controller armed, in the policy's phase: the pass
  /// (Innet only), then the estimator counter reset.
  void RunArmedAdaptation() ASPEN_REQUIRES_SEQUENTIAL;
  /// One re-optimization pass: re-estimates selectivities per held
  /// placement and, where the estimate diverged past the threshold, re-runs
  /// the pairwise cost model and relocates the pair by the migration
  /// policy. Grouped pairs (Innet-g) reconcile through the MPO coordinator
  /// round under either policy.
  void RunReopt() ASPEN_REQUIRES_SEQUENTIAL;
  /// Advances every in-flight planned migration by one phase.
  void AdvancePlannedMigrations() ASPEN_REQUIRES_SEQUENTIAL;
  /// Phase 2 of the protocol: takes the window state at the old site, ships
  /// its contents as a kWindowTransfer along the announced route and flips
  /// the placement. Returns false when the migration aborted (dead site,
  /// concurrent failover) and must be dropped.
  bool StartMigrationTransfer(PlannedMigration* m) ASPEN_REQUIRES_SEQUENTIAL;
  /// The in-flight planned migration for `pair`, or nullptr.
  PlannedMigration* FindMigration(const PairKey& pair);

  void FailoverPairToBase(const PairKey& pair) ASPEN_REQUIRES_SEQUENTIAL;
  /// Ships `producer`'s buffered last-w tuples for `pair` to the base.
  void SendWindowReplay(const PairKey& pair, net::NodeId producer, bool as_s)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// Re-submits replays whose previous attempt was dropped (e.g. the dead
  /// join node also blocked the producer's tree path to the base; once the
  /// route heals — a recovery event — the retry gets through).
  void RetryPendingReplays() ASPEN_REQUIRES_SEQUENTIAL;

  // -- helpers -------------------------------------------------------------------
  PairPlacement* MutablePlacement(const PairKey& pair);
  /// The medium's base-rooted routing tree — the tree every algorithm's
  /// depths, tree paths and tree-to-root frames use.
  const routing::RoutingTree& primary_tree() const;
  int DepthOf(net::NodeId id) const;
  opt::PairCostInputs AssumedCost() const;
  /// Estimates the optimizer uses for one pair: `assumed`, or the true
  /// per-node parameters in oracle mode.
  workload::SelectivityParams AssumedFor(const PairKey& pair) const;
  /// Charges a control message of `bytes` along `path` (computed plane).
  void ChargeAlongPath(const std::vector<net::NodeId>& path, int bytes,
                       net::MessageKind kind) ASPEN_REQUIRES_SEQUENTIAL;
  /// Producer's hop distance to its pair's join node along the stored path.
  static int HopsOnPath(const PairPlacement& p, bool from_s);
  /// The producer->join-node segment of a placement's path for one role:
  /// S walks path[0..path_index], T walks path[path_index..end] reversed.
  /// The single definition shared by send plans and multicast trees.
  static void RoleSegment(const PairPlacement& pl, bool role_s,
                          std::vector<net::NodeId>* seg);
  double ComputeDeltaCp(net::NodeId member, bool as_s,
                        const workload::SelectivityParams& est) const;
  void ApplyGroupDecision(const opt::JoinGroup& group, bool in_network)
      ASPEN_REQUIRES_SEQUENTIAL;
  void RebuildProducerRoute(net::NodeId p, bool as_s, bool charge_traffic)
      ASPEN_REQUIRES_SEQUENTIAL;
  /// The tree_mode == kShared variant: a KMB Steiner tree over (producer,
  /// destination set) alone, adopted from the RouteTable's destination-set
  /// index when a co-resident query already interned it.
  void RebuildSharedProducerRoute(net::NodeId p, bool charge_traffic)
      ASPEN_REQUIRES_SEQUENTIAL;

  /// Stamps the executor's query id and submits (unicast / multicast).
  Result<uint64_t> SubmitToNet(net::Message msg) ASPEN_REQUIRES_SEQUENTIAL;
  Result<uint64_t> SubmitMcastToNet(net::Message msg, net::McastId route)
      ASPEN_REQUIRES_SEQUENTIAL;

  /// Owner-reference bookkeeping for interned routes this query retains
  /// (no-ops on kInvalidRoute). Every cached RouteId/McastId — send-plan
  /// entries, placements' relay routes, per-node multicast trees — holds
  /// exactly one reference per field, released on rebuild or Shutdown.
  void RefRoute(net::RouteId id) ASPEN_REQUIRES_SEQUENTIAL;
  void UnrefRoute(net::RouteId id) ASPEN_REQUIRES_SEQUENTIAL;
  void RefMcast(net::McastId id) ASPEN_REQUIRES_SEQUENTIAL;
  void UnrefMcast(net::McastId id) ASPEN_REQUIRES_SEQUENTIAL;

  friend class SharedMedium;

  const workload::Workload* workload_;
  ExecutorOptions opts_;
  /// The hosting medium (placement-sharing hooks) and its network.
  SharedMedium* medium_;
  net::Network* net_;
  int query_id_;
  /// Number of placements with shared_entry >= 0 — gates the fan-out
  /// lookup in DeliverResultAtBase so unshared queries pay nothing.
  int num_fanout_pairs_ = 0;
  /// Innet exploration substrate (trees plus the primary join key's
  /// summary index), shared with co-resident queries over the same
  /// workload and owned jointly by its holders; the medium keeps only a
  /// weak reference (SharedMedium::InnetSubstrate). Null for the other
  /// algorithms and for Innet queries without a routable join clause.
  std::shared_ptr<const routing::MultiTree> multi_;
  std::unique_ptr<routing::GeoHash> geo_;
  std::unique_ptr<routing::DhtRing> dht_;

  std::vector<net::NodeId> s_nodes_, t_nodes_;
  std::vector<PairKey> pairs_;
  /// Placement table, sorted by pair key; NodeState pair lists hold indices
  /// into it, so the per-cycle dispatch is pure array indexing.
  std::vector<PairPlacement> placements_;
  /// Footprint node state, one entry per slot. Producers hold slots
  /// 0..producers_.size()-1 in ascending id; the base, join sites and flow
  /// nodes append after them. A deque, so an append never moves a state a
  /// pipelined sample stage may be reading.
  std::deque<NodeState> nodes_;
  /// NodeId -> slot in nodes_, -1 outside the footprint (n entries).
  std::vector<int32_t> slot_of_;
  /// The query's producers, ascending; producers_[i] holds slot i. Every
  /// per-producer walk (send plans, multicast trees, producer caches,
  /// teardown) runs over this list in ascending id.
  std::vector<net::NodeId> producers_;
  /// Nodes currently holding at least one PairState, sorted ascending.
  std::vector<net::NodeId> active_sites_;
  std::vector<opt::JoinGroup> groups_;
  /// Placement index -> index into groups_ (-1 when ungrouped).
  std::vector<int32_t> pair_group_;
  int group_decision_seq_ = 0;

  /// Typed payload pools on the network's data plane (shared by every
  /// executor on a medium). Not owned.
  net::TypedPool<DataPayload>* data_pool_ = nullptr;
  net::TypedPool<ResultPayload>* result_pool_ = nullptr;
  net::TypedPool<WindowTransferPayload>* window_pool_ = nullptr;

  /// One deferred EmitResults call of a deliver shard pass, with the
  /// canonical merge key (side, producer, arrival position, pair position)
  /// that reproduces the sequential emission order exactly.
  struct DeferredEmit {
    uint8_t phase = 0;  // 0 = S side, 1 = T side
    int32_t producer_slot = -1;  // ascending slot == ascending producer id
    int32_t box_pos = 0;
    int32_t pair_pos = 0;
    net::NodeId at = -1;
    PairKey pair;
    int matches = 0;
    int sample_cycle = 0;
  };

  /// One slot of a shard's sample slab ring: everything one pure sample
  /// stage pass writes. With pipeline depth D each shard holds D slabs
  /// (slot = cycle mod D), so the stage of a future cycle and the commit
  /// of the current one touch disjoint storage.
  struct SampleSlab {
    /// PassFilters output, one bit per producer_ids entry.
    std::vector<uint64_t> s_bits, t_bits;
    /// Staged sends: flags bit 0 = send_s, bit 1 = send_t. Failed-node
    /// filtering happens at commit (failure state may change between a
    /// prestage and its commit; sampling a failed producer is pure and
    /// free of shared state, so staging it costs nothing).
    std::vector<net::NodeId> staged_ids;
    std::vector<uint8_t> staged_flags;
    std::vector<query::Tuple> staged_tuples;
    int staged_count = 0;
  };

  /// Everything one shard's sample/deliver passes stage.
  ///
  /// The sample stage runs the batched workload kernel: the shard's
  /// producers (cached — roles are fixed once Initiate has populated the
  /// pair lists) go through Workload::PassFilters as one batch, and only
  /// the passing ones are sampled, into pre-sized tuple slots that recycle
  /// their capacity. Staged arrays are parallel (ids/flags/tuples share an
  /// index) and submissions happen at commit, in node order. The deliver
  /// scratch is separate from the slabs so a deliver shard pass and an
  /// overlapped sample stage on the same shard touch disjoint fields.
  struct ShardScratch {
    /// Producers in [cached_begin, cached_end) holding an S or T role,
    /// ascending; role bit 0 = S, bit 1 = T.
    std::vector<net::NodeId> producer_ids;
    std::vector<uint8_t> producer_roles;
    net::NodeId cached_begin = -1;
    net::NodeId cached_end = -1;
    /// Sample slab ring, sized by ConfigureSampleSlots (default one slot).
    std::vector<SampleSlab> slabs = std::vector<SampleSlab>(1);
    std::vector<DeferredEmit> emits;
    std::vector<net::NodeId> touched_sites;
  };

  /// (Re)derives a shard's producer cache for its node range and pre-sizes
  /// the staging arrays to the worst case (every producer passes).
  void BuildProducerCache(ShardScratch* sc, net::NodeId begin,
                          net::NodeId end);

  std::vector<ShardScratch> scratch_;
  /// Slots per shard in the sample slab ring (== the hosting scheduler's
  /// pipeline depth; 1 everywhere else).
  int sample_slots_ = 1;
  /// Reused canonical-merge scratch for deferred emissions.
  std::vector<const DeferredEmit*> emit_merge_;
  /// Set whenever a placement mutates; the next sample phase rebuilds the
  /// per-producer send plans before sending.
  bool plans_dirty_ = false;

  /// Data arrivals buffered during transmit, keyed by producer slot.
  sim::NodeMailboxes<Arrival> arrivals_;
  /// Failover replays awaiting a retry: (pair, as_s), in detection order.
  std::vector<std::pair<PairKey, bool>> pending_replays_;
  /// Planned migrations in flight (announce -> transfer -> complete), in
  /// announcement order.
  std::vector<PlannedMigration> planned_migrations_;
  /// One placement whose live estimate diverged past the replan threshold,
  /// collected by a re-optimization pass before any state moves.
  struct FreshEstimate {
    PairKey pair;
    workload::SelectivityParams est;
  };
  /// RunReopt scratch (diverged placements; MPO groups to reconcile,
  /// sorted), pre-reserved at initiation: a pass that finds divergence but
  /// migrates nothing is a steady-state cycle and must not allocate.
  std::vector<FreshEstimate> reopt_diverged_;
  std::vector<int32_t> reopt_groups_;
  /// Paces re-optimization and counter resets on the query's own learn
  /// ticks (the adaptation knobs of ExecutorOptions::knobs).
  adapt::ReoptController reopt_;
  int cycle_ = 0;
  uint64_t results_ = 0;
  double delay_sum_ = 0.0;
  double delay_max_ = 0.0;
  uint64_t migrations_ = 0;
  uint64_t failovers_ = 0;
  int init_latency_ = 0;
  bool initiated_ = false;
  bool shutdown_ = false;
};

}  // namespace join
}  // namespace aspen

#endif  // ASPEN_JOIN_EXECUTOR_H_
