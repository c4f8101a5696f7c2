#include "sim/cycle_scheduler.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/phase.h"

namespace aspen {
namespace sim {

namespace {

/// Balanced contiguous split: shard i starts at floor(i * n / k), with k
/// clamped to [1, n].
std::vector<net::NodeId> ShardStarts(int num_nodes, int num_shards) {
  num_shards = std::max(1, std::min(num_shards, num_nodes));
  std::vector<net::NodeId> starts(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    starts[i] = static_cast<net::NodeId>(static_cast<int64_t>(i) *
                                         num_nodes / num_shards);
  }
  return starts;
}

/// Clears a flag on scope exit, so every return path (including the
/// error returns inside the phase loops) restores it.
class FlagGuard {
 public:
  explicit FlagGuard(bool* flag) : flag_(flag) { *flag_ = true; }
  ~FlagGuard() { *flag_ = false; }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;

 private:
  bool* flag_;
};

}  // namespace

CycleScheduler::CycleScheduler(net::Network* network, int sample_interval,
                               int shards, int pipeline_depth)
    : net_(network),
      sample_interval_(sample_interval),
      starts_(ShardStarts(network->topology().num_nodes(), shards)),
      pool_(static_cast<int>(starts_.size()) - 1),
      depth_(std::max(1, pipeline_depth)),
      stage_pool_(depth_ > 1 ? static_cast<int>(starts_.size()) : 0) {
  ASPEN_CHECK(sample_interval > 0);
  // Construction happens strictly before any cycle runs.
  common::SequentialPhaseScope seq;
  net_->ConfigureSharding(starts_, &pool_);
  shard_job_ = [this](int s) {
    const net::NodeId lo = starts_[s];
    const net::NodeId hi = s + 1 < num_shards() ? starts_[s + 1]
                                                : net_->topology().num_nodes();
    if (current_is_sample_) {
      // The synchronous stage pass holds the same (and only the same)
      // capability as the overlapped one, so the purity requirement is
      // checked on both paths.
      common::PipelineStageScope stage;
      current_->OnSampleStage(current_cycle_, current_slot_, s, lo, hi);
    } else {
      current_->OnDeliverShard(current_cycle_, s, lo, hi);
    }
  };
  stage_job_ = [this](int idx) {
    const int shards = num_shards();
    const StageUnit& u = stage_units_[idx / shards];
    const int s = idx % shards;
    const net::NodeId lo = starts_[s];
    const net::NodeId hi = s + 1 < shards ? starts_[s + 1]
                                          : net_->topology().num_nodes();
    common::PipelineStageScope stage;
    u.sp->OnSampleStage(u.cycle, u.cycle % depth_, s, lo, hi);
  };
}

CycleScheduler::~CycleScheduler() {
  // A dispatched stage job borrows stage_units_ and the participants; make
  // sure none is in flight before members destruct.
  FinishRun();
  // The network outlives this scheduler but not the owned pool.
  net_->DetachShardPool();
}

void CycleScheduler::Attach(CycleParticipant* participant) {
  ASPEN_CHECK(participant != nullptr);
  participants_.push_back(participant);
}

void CycleScheduler::AttachFront(CycleParticipant* participant) {
  ASPEN_CHECK(participant != nullptr);
  // Prepending shifts indices under the phase loops; only safe between runs.
  ASPEN_CHECK(!dispatching_);
  participants_.insert(participants_.begin(), participant);
}

void CycleScheduler::Detach(CycleParticipant* participant) {
  InvalidateStaged(participant);
  auto it =
      std::find(participants_.begin(), participants_.end(), participant);
  ASPEN_CHECK(it != participants_.end());
  if (dispatching_) {
    // The phase loops are iterating by index; leave a tombstone they skip
    // and compact at the next cycle boundary.
    *it = nullptr;
  } else {
    participants_.erase(it);
  }
}

void CycleScheduler::InvalidateStaged(CycleParticipant* participant) {
  // Only legal from participant hooks or between runs, where no stage job
  // is in flight — but joining defensively costs nothing.
  if (stage_inflight_) {
    stage_inflight_ = false;
    stage_pool_.Wait();
  }
  ShardPhaseParticipant* sp = participant->sharded();
  if (sp == nullptr) return;
  for (size_t i = 0; i < staged_.size(); ++i) {
    if (staged_[i].sp == sp) {
      staged_.erase(staged_.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void CycleScheduler::SeekTo(int cycle) {
  ASPEN_CHECK(cycle >= cycle_);
  ASPEN_CHECK(!net_->HasTrafficInFlight());
  cycle_ = cycle;
}

void CycleScheduler::Compact() {
  participants_.erase(
      std::remove(participants_.begin(), participants_.end(), nullptr),
      participants_.end());
}

CycleScheduler::StagedRange* CycleScheduler::FindStaged(
    ShardPhaseParticipant* sp) {
  for (StagedRange& e : staged_) {
    if (e.sp == sp) return &e;
  }
  return nullptr;
}

Status CycleScheduler::SamplePhase(CycleParticipant* p, int cycle) {
  ShardPhaseParticipant* sp = p->sharded();
  if (sp == nullptr) return p->OnSample(cycle);
  if (!sp->Ready()) {
    return Status::FailedPrecondition("sample phase before Initiate");
  }
  sp->ConfigureSampleSlots(depth_);
  sp->OnSampleBegin(cycle);
  const int slot = cycle % depth_;
  StagedRange* e = FindStaged(sp);
  if (e != nullptr && cycle >= e->lo && cycle < e->hi) {
    // The overlapped stage already filled this cycle's slab (and joined at
    // the previous cycle's JoinPrestage); go straight to commit.
    e->lo = cycle + 1;
  } else {
    current_ = sp;
    current_cycle_ = cycle;
    current_slot_ = slot;
    current_is_sample_ = true;
    pool_.Run(num_shards(), shard_job_);
  }
  return sp->OnSampleCommit(cycle, slot);
}

Status CycleScheduler::DeliverPhase(CycleParticipant* p, int cycle) {
  ShardPhaseParticipant* sp = p->sharded();
  if (sp == nullptr) return p->OnDeliver(cycle);
  if (!sp->Ready()) {
    return Status::FailedPrecondition("deliver phase before Initiate");
  }
  sp->OnDeliverBegin(cycle);
  current_ = sp;
  current_cycle_ = cycle;
  current_is_sample_ = false;
  pool_.Run(num_shards(), shard_job_);
  return sp->OnDeliverCommit(cycle);
}

void CycleScheduler::DispatchPrestage(int cycle) {
  if (depth_ <= 1) return;
  // Stage the missing cycles in (cycle, cycle + depth) for every ready
  // sharded participant. Steady state is one new cycle per participant per
  // dispatch; the first cycle of a run (or a participant's first ready
  // cycle) fills the whole window. The participant's producer caches were
  // built by its synchronous stage pass before any prestage can target it,
  // so concurrent stage units of the same shard only ever read the cache
  // and write disjoint slots.
  stage_units_.clear();
  const int target = cycle + depth_;
  for (CycleParticipant* p : participants_) {
    if (p == nullptr) continue;
    ShardPhaseParticipant* sp = p->sharded();
    if (sp == nullptr || !sp->Ready()) continue;
    StagedRange* e = FindStaged(sp);
    if (e == nullptr) {
      staged_.push_back({sp, cycle + 1, cycle + 1});
      e = &staged_.back();
    } else if (e->hi < cycle + 1) {
      e->lo = e->hi = cycle + 1;
    }
    for (int c = std::max(e->hi, cycle + 1); c < target; ++c) {
      stage_units_.push_back({sp, c});
    }
    e->hi = std::max(e->hi, target);
    e->lo = std::max(e->lo, cycle + 1);
  }
  if (stage_units_.empty()) return;
  stage_inflight_ = true;
  stage_pool_.Dispatch(
      static_cast<int>(stage_units_.size()) * num_shards(), stage_job_);
}

void CycleScheduler::JoinPrestage() {
  if (!stage_inflight_) return;
  stage_inflight_ = false;
  stage_pool_.Wait();
}

void CycleScheduler::FinishRun() {
  if (stage_inflight_) {
    // Only reachable on abnormal exits (error return or exception between
    // dispatch and join); the run's own failure outranks the stage's.
    stage_inflight_ = false;
    try {
      stage_pool_.Wait();
    } catch (...) {
    }
  }
  // Whatever a caller mutates between RunCycles calls (workload
  // parameters, SeekTo, churn), the next call re-stages from current
  // state — continuation is depth-invariant.
  staged_.clear();
}

Status CycleScheduler::RunCycles(int n) {
  Compact();  // tombstones may survive an error-path return
  if (participants_.empty()) {
    return Status::FailedPrecondition("CycleScheduler has no participants");
  }
  ASPEN_CHECK(!dispatching_);
  FlagGuard in_dispatch(&dispatching_);
  // Every exit path — error returns from the phase loops included — must
  // leave no scheduler-forked work in flight and no prestaged slab valid.
  struct RunExitGuard {
    CycleScheduler* sched;
    ~RunExitGuard() { sched->FinishRun(); }
  } run_exit{this};
  // Phase loops iterate by index and re-read size(): a participant attached
  // mid-phase (query admission) is visited later in the same phase, and a
  // tombstoned one (query departure) is skipped from that instant.
  for (int i = 0; i < n; ++i) {
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(SamplePhase(p, cycle_));
    }
    DispatchPrestage(cycle_);
    {
      // The transmit loop runs on the scheduler thread; Step() itself forks
      // the shard compute jobs and rejoins before its exchange phase.
      common::SequentialPhaseScope seq;
      for (int s = 0; s < sample_interval_; ++s) {
        net_->Step();
        if (!net_->HasTrafficInFlight()) break;
      }
    }
    JoinPrestage();
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(DeliverPhase(p, cycle_));
    }
    // Re-optimize phase: sequential, nothing in flight — planned placement
    // migrations advance and periodic re-optimization decides here, so the
    // decisions see identical state at every shard count / pipeline depth.
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(p->OnReoptimize(cycle_));
    }
    for (size_t k = 0; k < participants_.size(); ++k) {
      CycleParticipant* p = participants_[k];
      if (p == nullptr) continue;
      ASPEN_RETURN_NOT_OK(p->OnLearn(cycle_));
    }
    ++cycle_;
    Compact();
  }
  // Straggler drain: frames still in the air after the last learn phase
  // (results emitted at the final cycle) are transmitted and delivered so
  // the metrics observed afterwards cover everything the run caused.
  {
    common::SequentialPhaseScope seq;
    net_->StepUntilQuiet(/*max_steps=*/16 * sample_interval_);
  }
  for (size_t k = 0; k < participants_.size(); ++k) {
    CycleParticipant* p = participants_[k];
    if (p == nullptr) continue;
    ASPEN_RETURN_NOT_OK(DeliverPhase(p, cycle_));
  }
  return Status::OK();
}

}  // namespace sim
}  // namespace aspen
