// The re-optimization loop of Section 6, paced per query.
//
// Join nodes learn selectivities, and a pair is re-placed once an estimate
// drifts past the paper's 33% trigger. ReoptController is the per-query
// piece that paces that loop: it counts the query's own learn ticks (so a
// query admitted mid-run on a shared medium re-optimizes on *its* clock,
// not the medium's), arms a pass every `interval` ticks and a counter reset
// every `counter_reset_interval` ticks, gates each pair on the divergence
// trigger, and accounts the planned migrations the executor derives from a
// pass. The executor runs the armed work from one sequential phase — the
// learn phase under the instant migration policy, the next cycle's
// re-optimize phase under the planned one — so every decision is made with
// nothing in flight, which keeps migrations byte-identical across shard
// counts and pipeline depths.

#ifndef ASPEN_ADAPT_REOPT_H_
#define ASPEN_ADAPT_REOPT_H_

#include <cstdint>

#include "adapt/estimator.h"
#include "workload/selectivity.h"

namespace aspen {
namespace adapt {

/// \brief Paces and gates one query's re-optimization.
///
/// Tick() is called once per learn phase (after estimators ticked); the
/// controller arms a pass every `interval` ticks and a counter reset every
/// `counter_reset_interval` ticks. The executor drains the armed flags with
/// TakeDue() and TakeReset(): a pass asks ShouldReplan() per placement
/// whether the live estimate diverged from the estimate the placement was
/// chosen with, and only then re-runs the cost model. An interval of 0
/// never arms.
class ReoptController {
 public:
  ReoptController() = default;
  ReoptController(int interval, double threshold,
                  int counter_reset_interval = 0)
      : interval_(interval),
        threshold_(threshold),
        reset_interval_(counter_reset_interval) {}

  bool enabled() const { return interval_ > 0; }
  int interval() const { return interval_; }
  double threshold() const { return threshold_; }

  /// One learn phase elapsed for this query (query-local, so mid-run
  /// admission does not skew the periods).
  void Tick() {
    ++ticks_;
    if (interval_ > 0 && ticks_ % interval_ == 0) due_ = true;
    if (reset_interval_ > 0 && ticks_ % reset_interval_ == 0) reset_ = true;
  }

  /// True exactly once per armed period: the caller runs a pass now.
  bool TakeDue() {
    const bool due = due_;
    due_ = false;
    if (due) ++passes_;
    return due;
  }

  /// True exactly once per armed reset period: the caller resets the
  /// estimator counters now, after any pass armed on the same tick.
  bool TakeReset() {
    const bool reset = reset_;
    reset_ = false;
    return reset;
  }

  /// The paper's Section 6 trigger: replan a pair only when the fresh
  /// estimate diverged from the placement-time reference past the
  /// configured threshold.
  bool ShouldReplan(const workload::SelectivityParams& fresh,
                    const workload::SelectivityParams& reference) const {
    return SelectivityEstimator::Diverged(fresh, reference, threshold_);
  }

  void RecordPlanned() { ++planned_; }
  void RecordCompleted() { ++completed_; }
  void RecordAborted() { ++aborted_; }

  int64_t ticks() const { return ticks_; }
  uint64_t passes() const { return passes_; }
  uint64_t planned() const { return planned_; }
  uint64_t completed() const { return completed_; }
  uint64_t aborted() const { return aborted_; }

 private:
  int interval_ = 0;
  double threshold_ = 0.33;
  int reset_interval_ = 0;
  int64_t ticks_ = 0;
  bool due_ = false;
  bool reset_ = false;
  uint64_t passes_ = 0;     ///< armed periods consumed via TakeDue()
  uint64_t planned_ = 0;    ///< migrations entered into the 3-phase protocol
  uint64_t completed_ = 0;  ///< migrations that finished all three phases
  uint64_t aborted_ = 0;    ///< migrations abandoned mid-protocol (dead site)
};

}  // namespace adapt
}  // namespace aspen

#endif  // ASPEN_ADAPT_REOPT_H_
