// Cycle-driven multi-hop wireless network simulator.
//
// This replaces the paper's TOSSIM substrate (see DESIGN.md substitutions):
// time advances in *transmission cycles*; each in-flight frame moves one hop
// per cycle. Links drop frames with a configurable Bernoulli probability and
// senders retransmit up to a bound — every attempt is charged to the
// sender's traffic counters, like real radio airtime. Failed (dead) nodes
// never acknowledge, so frames addressed to them exhaust their retries and
// surface through the drop handler, which the failure-recovery logic
// (Section 7) uses to detect dead join nodes.
//
// Loss draws are consumed unconditionally, one per physical transmission
// (per reception for multicast broadcasts), even when the receiver is dead
// or the effective loss probability is 0 or 1. Each *sender* owns an
// independent loss stream (seeded from the run seed and the node id), so a
// transmission's draw is a function of (sender, per-sender transmission
// ordinal) alone — independent of how transmissions at different nodes
// interleave. Node failure therefore never shifts the position of another
// node's draws, and the sharded step (below) reproduces the exact
// single-shard stream for any shard count.
//
// Sharded stepping: nodes are partitioned into contiguous id ranges
// (shards), each owning a frame slab and the step queues of the frames
// currently held by its nodes. A Step() is a compute phase — every shard
// transmits its senders' frames, draws losses from its own nodes' streams
// and forwards in-shard arrivals locally — followed by an exchange phase
// that merges each shard's deferred externally-visible effects (handler
// invocations, payload refcounts, cross-shard arrivals, per-kind/per-query
// stats) in one canonical content order. Frames are totally ordered by
// (packet class, holder, message id, destination), never by queue
// position, so the observable outcome of a Step is byte-identical for
// every shard count, including 1; shard count only decides which thread
// runs each shard's compute phase. See DESIGN.md ("sharded execution").
//
// Snoop semantics: overhearing keys off the *sender's* transmission alone.
// A neighbor snoops every on-air unicast attempt — including
// retransmissions and the final attempt before the sender abandons a frame
// — independent of whether the intended receiver loses the frame. Failed
// nodes never snoop, the intended next hop is never reported as a snooper,
// and merged packets snoop once per logical frame they carry. Multicast
// broadcasts are already delivered to every listed child and do not
// additionally snoop.
//
// Data plane: messages are POD envelopes (net/message.h). Routes are
// interned in the plane's RouteTable and referenced by id; payloads live in
// pooled slabs referenced by PayloadHandle. Frames are stored in a
// free-list slab and the step queues move slab indices, so a steady-state
// Step allocates nothing.
//
// Payload ownership: Submit/SubmitMulticast take over the payload
// reference carried by the message (releasing it even when submission
// fails). Delivery, drop and snoop handlers *borrow* the payload for the
// duration of the call; a handler that keeps the handle must AddRef it
// through the plane's PayloadArena.

#ifndef ASPEN_NET_NETWORK_H_
#define ASPEN_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/phase.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/data_plane.h"
#include "net/geo_routing.h"
#include "net/message.h"
#include "net/topology.h"
#include "net/traffic_stats.h"

namespace aspen {
namespace net {

/// \brief Supplies tree-parent pointers for RoutingMode::kTreeToRoot.
/// Implemented by routing::RoutingTree; injected to avoid a layering cycle.
class ParentResolver {
 public:
  virtual ~ParentResolver() = default;
  /// Next hop from `at` toward the root, or -1 at the root.
  virtual NodeId ParentOf(NodeId at) const = 0;
};

struct NetworkOptions {
  /// Per-transmission loss probability (TOSSIM-style radio error).
  double loss_prob = 0.0;
  /// Retransmissions before a frame is dropped (total attempts =
  /// max_retries + 1).
  int max_retries = 3;
  /// Enables the opportunistic packet-merging optimization (Appendix E,
  /// "other opportunistic techniques"): frames queued at the same node for
  /// the same next hop and same final destination share one link header.
  bool enable_merging = false;
  /// Enables promiscuous overhearing callbacks (used by path collapsing).
  bool enable_snooping = false;
  uint64_t seed = 1;
};

/// \brief The simulator. Owns frame queues, traffic stats and the clock.
class Network {
 public:
  /// Delivery at the message's final destination (or a multicast target).
  /// `at` is the delivering node (differs per target for multicast).
  using DeliveryHandler = std::function<void(const Message&, NodeId at)>;
  /// A frame was abandoned: it exhausted its retries toward `next_hop`, or
  /// the node holding it (`at`) failed and the frame died with it.
  using DropHandler =
      std::function<void(const Message&, NodeId at, NodeId next_hop)>;
  /// `snooper` overheard a frame from `from` to `to` (no traffic charged).
  using SnoopHandler = std::function<void(const Message&, NodeId snooper,
                                          NodeId from, NodeId to)>;

  /// `topology` must outlive the network.
  Network(const Topology* topology, NetworkOptions options);

  void set_delivery_handler(DeliveryHandler h) { on_deliver_ = std::move(h); }
  void set_drop_handler(DropHandler h) { on_drop_ = std::move(h); }
  void set_snoop_handler(SnoopHandler h) { on_snoop_ = std::move(h); }
  /// `resolver` must outlive the network (or be reset before destruction).
  void set_parent_resolver(const ParentResolver* resolver) {
    parent_resolver_ = resolver;
  }

  RouteTable& routes() { return plane_.routes(); }
  const RouteTable& routes() const { return plane_.routes(); }
  PayloadArena& payloads() { return plane_.payloads(); }

  /// \brief Injects a message at its origin. Returns the assigned id.
  ///
  /// If origin == dest the message is delivered immediately at zero cost.
  /// Invalid routes (no interned route, missing resolver) return an error.
  /// The payload reference is consumed in every case.
  Result<uint64_t> Submit(Message msg) ASPEN_REQUIRES_SEQUENTIAL;

  /// \brief Injects a multicast message rooted at msg.origin following the
  /// interned tree `route`. One frame per tree edge; shared prefixes are
  /// transmitted once.
  Result<uint64_t> SubmitMulticast(Message msg, McastId route)
      ASPEN_REQUIRES_SEQUENTIAL;

  /// \brief Repartitions the node space into shards. `starts[i]` is the
  /// first node id of shard i; starts[0] must be 0 and starts must ascend.
  /// `pool` (borrowed, may be null = inline) runs the per-shard compute
  /// phases of subsequent Step() calls. Must be called while no traffic is
  /// in flight. A network starts with one shard and no pool.
  void ConfigureSharding(std::vector<NodeId> starts,
                         common::WorkerPool* pool) ASPEN_REQUIRES_SEQUENTIAL;

  /// Drops the borrowed worker pool; subsequent Steps compute every shard
  /// inline. Called by the pool's owner when it is destroyed first.
  void DetachShardPool() { pool_ = nullptr; }

  /// Pre-grows every shard's frame slab, free/flight lists and effect
  /// buffers for an expected steady-state load of `frames_per_shard`
  /// in-flight frames. Callers (query initiation) pass their per-cycle
  /// emission bound so the cycle loop never grows these mid-run; the
  /// reserve is a floor — an unusually deep in-flight tail still grows the
  /// slabs, which the benches' allocation audits would surface.
  void ReserveSteadyState(size_t frames_per_shard) ASPEN_REQUIRES_SEQUENTIAL;

  int num_shards() const { return static_cast<int>(shard_starts_.size()); }
  /// The shard owning node `id`.
  int ShardOf(NodeId id) const {
    int s = num_shards() - 1;
    while (shard_starts_[s] > id) --s;
    return s;
  }

  /// Advances one transmission cycle (compute phases per shard, then the
  /// canonical exchange phase; see the class comment). Sequential-phase
  /// only: the shard compute jobs it forks are the *only* code of a cycle
  /// allowed to run outside the capability.
  void Step() ASPEN_REQUIRES_SEQUENTIAL;

  /// Steps until no frames are in flight or `max_steps` elapse; returns the
  /// number of steps taken.
  int StepUntilQuiet(int max_steps = 1 << 20) ASPEN_REQUIRES_SEQUENTIAL;

  bool HasTrafficInFlight() const;
  /// True while any frame stamped with `query_id` is in flight. Query-id
  /// recycling on a shared medium waits for this to clear so a reused id
  /// never inherits a departed query's straggler frames.
  bool HasQueryTrafficInFlight(int query_id) const;
  /// Frames currently in flight across all shards (service-mode occupancy).
  int64_t frames_in_flight() const;
  /// Total frame-slab slots allocated across all shards (never shrinks).
  size_t frame_slab_capacity() const;
  int64_t now() const { return now_; }

  TrafficStats& stats() { return stats_; }
  const TrafficStats& stats() const { return stats_; }
  const Topology& topology() const { return *topology_; }
  const NetworkOptions& options() const { return options_; }

  // ---- scenario mutation API -----------------------------------------------
  // The narrow surface scripted dynamics (src/scenario/) may mutate mid-run.
  // Everything else about a network is fixed at construction.

  /// Marks a node dead: it stops forwarding, acking and originating.
  void FailNode(NodeId id) ASPEN_REQUIRES_SEQUENTIAL;
  /// Brings a dead node back (used by repair experiments).
  void ReviveNode(NodeId id) ASPEN_REQUIRES_SEQUENTIAL;
  bool IsFailed(NodeId id) const { return failed_[id]; }

  /// Replaces the default per-transmission loss probability (applies to
  /// every link without a per-link override).
  void set_loss_prob(double p) ASPEN_REQUIRES_SEQUENTIAL {
    options_.loss_prob = p;
  }
  /// Overrides the loss probability of the directed link from->to.
  void SetLinkLoss(NodeId from, NodeId to, double p) ASPEN_REQUIRES_SEQUENTIAL;
  /// Removes a per-link override; the link falls back to the default.
  void ClearLinkLoss(NodeId from, NodeId to) ASPEN_REQUIRES_SEQUENTIAL;
  /// Effective loss probability of the directed link from->to. The common
  /// no-overrides case is a single branch — no hash probe on the hot path.
  double LinkLoss(NodeId from, NodeId to) const {
    return link_loss_.empty() ? options_.loss_prob
                              : LinkLossLookup(from, to);
  }

 private:
  struct Frame {
    Message msg;
    McastId mcast = kInvalidRoute;  // kInvalidRoute for unicast
    NodeId at = -1;
    NodeId next = -1;
    int attempts = 0;
    int32_t path_idx = 0;  // index of `at` within the route (kSourcePath)
    /// GPSR greedy/perimeter routing state (kGeoGreedy frames).
    GeoRouteState geo;
  };
  static_assert(std::is_trivially_copyable<Frame>::value,
                "Frame must stay POD so the slab can memcpy it");

  /// \brief Canonical total order over the frames of one Step.
  ///
  /// (class, holder, k1, k2, k3) identifies the physical packet group —
  /// multicast broadcast (0, at, msg id), merge-eligible unicast
  /// (1, at, next, final dest, kind), singleton (2, at, msg id, dest) —
  /// and (id, dest) orders members within a group. Every component is
  /// frame *content*, never queue position, so the order is identical for
  /// any sharding of the queues (class comment).
  using SortKey =
      std::tuple<int8_t, NodeId, int64_t, int64_t, int64_t, uint64_t, NodeId>;

  /// One deferred externally-visible event of a shard's compute phase,
  /// applied in canonical (key, seq) order during the exchange phase.
  struct Effect {
    enum class Kind : uint8_t {
      kDeliver,   ///< fire the delivery handler: msg delivered at `a`
      kDrop,      ///< fire the drop handler: msg died at `a` toward `b`
      kSnoopTx,   ///< expand snoopers of the transmission `a` -> `b`
      kAddRef,    ///< payload refcount +1 (multicast fan-out)
      kRelease,   ///< payload refcount -1 (terminal frame outcome)
      kArrive,    ///< cross-shard arrival: apply `frame` at frame.next
    };
    Kind kind;
    int32_t seq;  ///< emission ordinal within one frame's processing
    SortKey key;  ///< the frame's canonical position in this Step
    Message msg;  ///< envelope for kDeliver / kDrop / kSnoopTx
    NodeId a = -1;
    NodeId b = -1;
    int bytes = 0;            ///< kArrive: received bytes to record
    PayloadHandle payload;    ///< kAddRef / kRelease
    Frame frame;              ///< kArrive: the migrating frame
  };

  /// \brief Everything one shard owns: the frames currently held by its
  /// node range, their slab, the step queues, scratch, and the compute
  /// phase's deferred outputs.
  struct Shard {
    std::vector<Frame> frames;
    std::vector<int32_t> free_frames;
    std::vector<int32_t> in_flight;
    std::vector<int32_t> pending;
    /// Reused packet-grouping scratch: (canonical key, slab index), sorted.
    std::vector<std::pair<SortKey, int32_t>> group_scratch;
    std::vector<Effect> effects;
    TrafficStats::ShardDelta stats_delta;
  };

  SortKey KeyFor(const Frame& f) const;
  /// Whether two canonically-sorted frames share one physical packet.
  static bool SamePacketGroup(const SortKey& a, const SortKey& b);

  /// Appends an effect with the next seq ordinal; caller fills the fields.
  Effect& PushEffect(Shard* sh, Effect::Kind kind, const SortKey& key,
                     int* seq);
  /// Deferred DropAndRelease: a kDrop effect followed by the kRelease.
  void PushDropEffects(Shard* sh, const SortKey& key, int* seq,
                       const Message& msg, NodeId at, NodeId next);

  /// Slab allocation within one shard. May grow the slab — references into
  /// it are invalidated.
  int32_t AllocFrame(Shard* shard);
  static void FreeFrame(Shard* shard, int32_t idx) {
    shard->free_frames.push_back(idx);
  }

  /// Computes the hop after `frame->at`, updating geo escape state;
  /// returns -1 when no progress is possible (caller drops) and -2 when
  /// `frame->at` is the final dest.
  NodeId ResolveNextHop(Frame* frame) const;

  /// Compute phase of one shard: transmit every in-flight frame held by
  /// the shard's nodes, forwarding in-shard arrivals locally and deferring
  /// every externally-visible effect into the shard's effect list.
  void ComputeShard(int shard_idx);

  // There is exactly ONE arrival state machine (ArriveSlot); what differs
  // between the compute and exchange phases is only where its
  // externally-visible events go, expressed as a sink:
  // DeferSink appends canonical-keyed effects (compute phase, concurrent);
  // InlineSink fires handlers / refcounts directly (exchange phase, which
  // is sequential and already at the event's canonical position).
  struct DeferSink;
  struct InlineSink;
  /// Arrival of the frame in `shard`'s slot `idx` at its `next` node:
  /// delivery, multicast fan-out, or re-queuing toward the next hop.
  /// Terminal outcomes free the slot and release (via the sink) the
  /// payload.
  /// Not analyzed: the one state machine is instantiated for both phases —
  /// with DeferSink from the (capability-free) shard compute walk and with
  /// InlineSink from exchange-phase code that already holds the sequential
  /// capability. A per-instantiation analysis cannot express that split.
  template <typename Sink>
  void ArriveSlot(Shard* shard, int32_t idx, Sink sink)
      ASPEN_NO_THREAD_SAFETY_ANALYSIS;
  /// Exchange-phase arrival of a migrated frame: copies it into the slab
  /// of the shard owning the arrival node, then runs ArriveSlot inline.
  void ArriveExchange(const Frame& f) ASPEN_REQUIRES_SEQUENTIAL;
  /// Merges per-shard effects in canonical order and applies them; absorbs
  /// stats deltas.
  void ExchangePhase() ASPEN_REQUIRES_SEQUENTIAL;

  void DeliverLocal(const Message& msg, NodeId at) ASPEN_REQUIRES_SEQUENTIAL;
  /// Fires the drop handler (borrowing) and releases the payload.
  void DropAndRelease(const Message& msg, NodeId at, NodeId next)
      ASPEN_REQUIRES_SEQUENTIAL;

  /// One unconditional loss draw from `sender`'s stream (consumes exactly
  /// one value for any p; see the class comment on stream comparability).
  bool DrawLoss(NodeId sender, double p) {
    return node_rng_[sender].UniformDouble() < p;
  }

  double LinkLossLookup(NodeId from, NodeId to) const;

  static uint64_t LinkKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }

  const Topology* topology_;
  NetworkOptions options_;
  /// Per-node loss streams; see the class comment.
  std::vector<Rng> node_rng_;
  TrafficStats stats_;
  const ParentResolver* parent_resolver_ = nullptr;
  DataPlane plane_;

  DeliveryHandler on_deliver_;
  DropHandler on_drop_;
  SnoopHandler on_snoop_;

  /// Shard partition: shard_starts_[i] = first node of shard i (always
  /// starts with 0); shards_[i] owns the frames held by that range.
  std::vector<NodeId> shard_starts_;
  std::vector<Shard> shards_;
  common::WorkerPool* pool_ = nullptr;  // borrowed; null = inline compute
  /// Cached compute job (avoids a per-Step std::function construction).
  std::function<void(int)> compute_job_;
  /// Reused exchange-phase merge scratch (pointers into shard effects).
  std::vector<const Effect*> merge_scratch_ ASPEN_GUARDED_BY_SEQUENTIAL;

  std::vector<bool> failed_;
  /// Per-link loss overrides as a (LinkKey, p) vector sorted by key; empty
  /// in the common case. Lookups binary-search; mutation is O(n) but only
  /// scenario events mutate. A sorted vector (vs a hash map) keeps link
  /// iteration order deterministic by construction and off detlint's
  /// unordered-container radar.
  std::vector<std::pair<uint64_t, double>> link_loss_;
  int64_t now_ = 0;
  uint64_t next_id_ ASPEN_GUARDED_BY_SEQUENTIAL = 1;
  bool in_step_ = false;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_NETWORK_H_
