// The shared event-driven simulation kernel.
//
// One CycleScheduler owns the clock and the phase ordering of a run:
//
//   sample   — every participant samples its sensors and submits the
//              cycle's traffic to the network
//   transmit — the network moves frames hop-by-hop until the sampling
//              interval elapses or the air goes quiet
//   deliver  — arrivals buffered during transmit are applied (join-window
//              insertion, result accounting)
//   learn    — participants run adaptation (selectivity re-estimation,
//              migration) and advance their windows
//
// Every run is hosted on a join::SharedMedium, which drives this one loop;
// a participant is one query's protocol logic hosted on the kernel. The
// scheduler persists across RunCycles calls, so a run can be continued
// (RunCycles(5) twice == RunCycles(10) cycle-for-cycle, modulo the straggler
// drain performed after every call).
//
// Worker topology is configuration, not a second code path. The node space
// is partitioned into K contiguous shards (node ids are spatially coherent:
// grid topologies number row-major, so contiguous id ranges are strips of
// the deployment). A participant's sample phase is Begin (scheduler thread),
// then every shard stages its node range concurrently, then Commit submits
// the staged samples in node order; its deliver phase splits the same way.
// Network::Step runs each shard's compute phase on the worker pool and
// merges deferred effects in canonical content order (see net/network.h).
// K = 1 runs the identical schedule with one shard on the scheduler thread.
//
// With pipeline_depth D > 1 the scheduler additionally overlaps cycles:
// after cycle N's sample commits, the *pure* sample stage of cycles
// N+1..N+D-1 is dispatched to a dedicated stage pool and runs while cycle
// N's transmit occupies the scheduler thread (and the shard pool, which
// Network::Step forks onto). The stage only reads cycle-immutable state and
// writes per-(shard, slot) slabs — slot = cycle mod D — and the join point
// is the end of the transmit loop, so the deliver/learn phases and every
// commit still run with nothing in flight. See DESIGN.md ("Pipelined
// execution").
//
// Every cross-shard interaction is deferred into per-shard buffers and
// merged in an order derived from content (node ids, message ids, mailbox
// positions), never from shard count, pipeline depth or thread timing — so
// a run's TrafficStats, results and RNG streams are byte-identical for
// every (K, D). The knobs only decide which thread executes each range and
// how early it may run.

#ifndef ASPEN_SIM_CYCLE_SCHEDULER_H_
#define ASPEN_SIM_CYCLE_SCHEDULER_H_

#include <functional>
#include <vector>

#include "common/parallel.h"
#include "common/phase.h"
#include "common/status.h"
#include "net/network.h"

namespace aspen {
namespace sim {

/// \brief Node-range-parallel implementations of the sample and deliver
/// phases.
///
/// Each phase splits Begin (scheduler thread; sequential prep), a per-shard
/// stage (invoked once per shard, concurrently, over the shard's contiguous
/// node range [begin, end)) and Commit (scheduler thread; applies
/// everything the shard passes staged, in one canonical order). A stage
/// pass must only mutate state owned by its node range or its own
/// per-shard scratch; the phase's observable outcome must not depend on
/// the shard count.
///
/// The sample stage is additionally *pure* (ASPEN_REQUIRES_PIPELINE): it
/// reads only state that is immutable during a cycle (the workload after
/// OnSampleBegin's WarmFilterCache, the per-shard producer caches) and
/// writes only its own (shard, slot) slab — so the scheduler may run it for
/// cycle N+1 while cycle N's transmit is still in flight. The `slot` index
/// (cycle % slots, with `slots` set via ConfigureSampleSlots) names which
/// slab of the ring the stage fills and the matching commit drains.
class ShardPhaseParticipant {
 public:
  virtual ~ShardPhaseParticipant() = default;

  /// Sizes the sample slab ring to `slots` (>= 1) independent per-shard
  /// slabs so a pipelined scheduler can stage up to `slots - 1` future
  /// cycles while earlier slabs await commit. Idempotent; called by the
  /// scheduler before the participant's sample phase. Participants start
  /// with one slot.
  virtual void ConfigureSampleSlots(int slots) = 0;

  /// True once the participant can run its phases (e.g. a query that is
  /// initiated and not shut down). The scheduler never prestages a
  /// participant that is not ready, and fails the run with
  /// FailedPrecondition when one reaches its sample or deliver phase.
  virtual bool Ready() const { return true; }

  virtual void OnSampleBegin(int cycle) = 0;
  virtual void OnSampleStage(int cycle, int slot, int shard,
                             net::NodeId begin, net::NodeId end)
      ASPEN_REQUIRES_PIPELINE = 0;
  virtual Status OnSampleCommit(int cycle, int slot) = 0;

  virtual void OnDeliverBegin(int cycle) = 0;
  virtual void OnDeliverShard(int cycle, int shard, net::NodeId begin,
                              net::NodeId end) = 0;
  virtual Status OnDeliverCommit(int cycle) = 0;
};

/// \brief A participant in the phase loop: one query's protocol logic, a
/// scenario driver, the medium's route sweep, or a measurement probe. Phase
/// hooks are invoked in registration order; `cycle` is the scheduler's
/// clock value. Every hook defaults to a no-op.
class CycleParticipant {
 public:
  virtual ~CycleParticipant() = default;

  /// Sample phase: sample producers and submit this cycle's data traffic.
  virtual Status OnSample(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Deliver phase: apply arrivals buffered during transmit. Also invoked
  /// once after the final straggler drain of a RunCycles call.
  virtual Status OnDeliver(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Re-optimize phase: runs after deliver and before learn, strictly
  /// sequential with nothing in flight (the transmit loop drained and
  /// every deliver commit applied). This is where planned placement
  /// migrations advance and — on its period — the planned policy's
  /// re-optimization pass re-runs the cost model against live estimates:
  /// decisions made here see identical state for every shard count and
  /// pipeline depth, which is what keeps migrations byte-identical. Not
  /// invoked during the straggler drain after the last cycle.
  virtual Status OnReoptimize(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Learn phase: estimator ticks and the instant policy's
  /// re-optimization pass.
  virtual Status OnLearn(int cycle) {
    (void)cycle;
    return Status::OK();
  }

  /// Non-null when the participant runs its sample and deliver phases
  /// through the sharded split; the scheduler then calls that split
  /// instead of OnSample/OnDeliver.
  virtual ShardPhaseParticipant* sharded() { return nullptr; }
};

/// \brief Owns the clock and drives the phase loop over one network, with
/// per-shard worker threads and optional cross-cycle sample pipelining.
class CycleScheduler {
 public:
  /// `network` must outlive the scheduler. `sample_interval` (> 0) is the
  /// number of transmission cycles available per sampling cycle. `shards`
  /// partitions the network's node space into that many contiguous ranges
  /// (clamped to [1, node count]) and steps them on an owned worker pool of
  /// shards - 1 threads. `pipeline_depth` (clamped to >= 1) sizes the
  /// sample slab ring: 1 is the fully synchronous schedule; D > 1
  /// prestages up to D - 1 future cycles on a dedicated pool of `shards`
  /// stage workers.
  CycleScheduler(net::Network* network, int sample_interval, int shards = 1,
                 int pipeline_depth = 1);
  ~CycleScheduler();

  CycleScheduler(const CycleScheduler&) = delete;
  CycleScheduler& operator=(const CycleScheduler&) = delete;

  /// Registers a participant. It must outlive the scheduler (or Detach
  /// first). May be called mid-run — from inside another participant's
  /// phase hook — in which case the new participant joins the *current*
  /// phase after every earlier participant: a query admitted during the
  /// cycle-N sample phase samples at cycle N.
  void Attach(CycleParticipant* participant);

  /// Registers a participant ahead of everything already attached. Scenario
  /// dynamics (scenario::ScenarioDriver) attach here so a mutation
  /// scheduled for cycle N is applied before any query samples at cycle N,
  /// regardless of construction order. Not valid mid-run.
  void AttachFront(CycleParticipant* participant);

  /// \brief Unregisters a participant; its phase hooks stop firing, and its
  /// prestaged slabs are dropped (a departed query's stage never runs or
  /// commits after its teardown). May be called mid-run (query departure):
  /// the slot is tombstoned so the in-progress phase loop skips it, and
  /// compacted at the next cycle boundary. A participant detached during
  /// the cycle-N sample phase before its own turn never samples at cycle N.
  void Detach(CycleParticipant* participant);

  /// \brief Drops the prestaged sample slabs of a participant that stays
  /// attached but whose sample-visible state was mutated mid-run (e.g. a
  /// placement-sharing subscriber promoted to owner, whose per-node pair
  /// lists just changed). The affected cycles re-run their sample stage
  /// synchronously from post-mutation state, keeping the mutation
  /// byte-identical at every pipeline depth.
  void InvalidateStaged(CycleParticipant* participant);

  /// \brief Advances the clock to `cycle` without running any phases, so a
  /// fresh run can reproduce a query admitted mid-run on a shared medium
  /// (sampling is a pure function of the cycle number). Requires
  /// cycle >= cycle() and no traffic in flight.
  void SeekTo(int cycle);

  /// \brief Runs `n` sampling cycles, then drains straggler frames (e.g.
  /// results emitted at the last cycle's end) and delivers them, so the
  /// metrics observed afterwards cover everything the run caused. May be
  /// called repeatedly to continue a run.
  Status RunCycles(int n);

  int cycle() const { return cycle_; }
  int sample_interval() const { return sample_interval_; }
  int num_shards() const { return static_cast<int>(starts_.size()); }

 private:
  /// One participant's sample (resp. deliver) phase: the sharded
  /// Begin/Stage/Commit split when the participant has one, the plain hook
  /// otherwise. A cycle whose slab was prestaged skips straight to Commit.
  Status SamplePhase(CycleParticipant* p, int cycle);
  Status DeliverPhase(CycleParticipant* p, int cycle);

  /// After every sample phase of `cycle`: dispatches the pure sample stage
  /// of the missing future cycles (up to cycle + depth - 1) for every
  /// ready sharded participant, to overlap with cycle's transmit.
  void DispatchPrestage(int cycle);
  /// After the transmit loop: joins the dispatched stage work, rethrowing
  /// its first error before any deliver or commit consumes a possibly
  /// half-written slab.
  void JoinPrestage();
  /// On every exit path of RunCycles: joins stray stage work and
  /// invalidates every prestaged slab, so the state a caller observes —
  /// or mutates — between RunCycles calls never depends on the depth.
  void FinishRun();

  /// Erases tombstones left by mid-run Detach calls.
  void Compact();

  /// Cycles [lo, hi) whose sample slabs are filled for one participant.
  struct StagedRange {
    ShardPhaseParticipant* sp;
    int lo;
    int hi;
  };
  StagedRange* FindStaged(ShardPhaseParticipant* sp);

  net::Network* net_;
  int sample_interval_;
  /// Detached-mid-run slots are tombstoned (nullptr) and compacted at the
  /// next cycle boundary; phase loops iterate by index so mid-phase
  /// attaches are picked up within the same phase.
  std::vector<CycleParticipant*> participants_;
  int cycle_ = 0;
  bool dispatching_ = false;

  /// First node of each shard: shard i starts at floor(i * n / k).
  std::vector<net::NodeId> starts_;
  common::WorkerPool pool_;
  /// Reused worker job (set per phase; avoids per-call allocation).
  ShardPhaseParticipant* current_ = nullptr;
  int current_cycle_ = 0;
  int current_slot_ = 0;
  bool current_is_sample_ = false;
  std::function<void(int)> shard_job_;

  // -- pipelined cross-cycle staging ------------------------------------
  /// Slots in the sample slab ring; 1 disables the overlap entirely.
  int depth_;
  /// Dedicated stage workers: during the overlap window the shard pool is
  /// owned by Network::Step's compute phases, and a WorkerPool runs one
  /// job at a time.
  common::WorkerPool stage_pool_;
  /// One prestaged (participant, cycle); the dispatched job runs every
  /// unit x shard combination.
  struct StageUnit {
    ShardPhaseParticipant* sp;
    int cycle;
  };
  std::vector<StageUnit> stage_units_;
  std::vector<StagedRange> staged_;
  std::function<void(int)> stage_job_;
  /// True between DispatchPrestage and the join (JoinPrestage, or
  /// FinishRun/InvalidateStaged on abnormal paths).
  bool stage_inflight_ = false;
};

}  // namespace sim
}  // namespace aspen

#endif  // ASPEN_SIM_CYCLE_SCHEDULER_H_
