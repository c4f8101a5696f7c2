// The one definition of the run-shape knobs shared by every options struct.
//
// ExecutorOptions (one query), MediumOptions (the medium hosting one or
// many queries) and, transitively, core::ExperimentOptions /
// core::ServiceOptions used to re-declare the same knobs — shard count,
// pipeline depth, sampling clock — with subtly independent defaults. They
// now all embed one RunKnobs, so a knob exists in exactly one place, the
// env-variable parsing lives in exactly one bench helper
// (benchutil::KnobsFromEnv: ASPEN_SHARDS / ASPEN_PIPELINE / ASPEN_REOPT),
// and new run-wide knobs are added once instead of three times. The four
// adaptation knobs (reopt_interval, reopt_threshold, migration,
// counter_reset_interval) live here and nowhere else.

#ifndef ASPEN_COMMON_RUN_KNOBS_H_
#define ASPEN_COMMON_RUN_KNOBS_H_

namespace aspen {
namespace common {

/// \brief Multicast tree construction policy for producer result routes.
enum class TreeMode {
  /// One tree per producer per query, built from that query's explored
  /// path segments — the historical behavior and the default.
  kPerSource,
  /// KMB-approximation shared Steiner trees: the tree depends only on
  /// (root, destination set), so co-resident queries with overlapping
  /// destination sets intern one refcounted tree via the RouteTable's
  /// content-addressed destination-set lookup. Also enables common
  /// sub-join placement sharing in SharedMedium (DESIGN.md "Cross-query
  /// work sharing").
  kShared,
};

/// \brief How a re-optimization pass relocates a pair whose placement must
/// move (DESIGN.md "Re-optimization (Section 6)").
enum class Migration {
  /// The three-phase protocol: announce, window transfer, complete. The
  /// pass armed at a learn tick runs in the next cycle's re-optimize phase,
  /// and data keeps flowing to the old site until the transfer.
  kPlanned,
  /// The paper's Section 6 move: window state and producer plans move at
  /// once, in the learn phase that armed the pass.
  kInstant,
};

/// \brief Run-shape knobs shared by executor, medium and experiment options.
struct RunKnobs {
  /// Spatial shard count: K > 1 partitions the node space into K contiguous
  /// id ranges, each stepped by its own worker thread, with cross-shard
  /// effects merged in canonical content order — observable output is
  /// byte-identical for every K (DESIGN.md "Sharded execution").
  int shards = 1;

  /// Cross-cycle pipeline depth: D > 1 overlaps the pure sample stages of
  /// cycles N+1..N+D-1 with cycle N's transmit on a dedicated stage pool,
  /// byte-identical at every depth (DESIGN.md "Pipelined execution").
  int pipeline_depth = 1;

  /// Transmission cycles per sampling cycle — the sampling clock of a
  /// medium's scheduler. Every query admitted to a medium must declare the
  /// same `window.sample_interval`; core::RunExperiment takes the clock
  /// from its query instead and ignores this field.
  int sample_interval = 100;

  /// Re-optimization period, in the query's own learn ticks: every
  /// `reopt_interval` ticks a pass re-estimates selectivities at the join
  /// nodes and, where an estimate diverged past `reopt_threshold`, re-runs
  /// the cost model and relocates the pair by `migration` (DESIGN.md
  /// "Re-optimization (Section 6)"). 0 keeps the plan frozen at admission;
  /// negative values are rejected.
  int reopt_interval = 0;

  /// Relative divergence between a live estimate and the estimate the
  /// current placement was chosen with that makes a pass replan a pair.
  /// The paper's Section 6 trigger: 33%.
  double reopt_threshold = 0.33;

  /// How a pair that must move moves, and in which sequential phase the
  /// armed pass runs.
  Migration migration = Migration::kPlanned;

  /// Learn ticks between resets of the join nodes' estimator counters, so
  /// estimates track a local time span. 0 never resets; negative values are
  /// rejected.
  int counter_reset_interval = 0;

  /// Producer multicast tree policy (ASPEN_TREE_MODE: "per_source" |
  /// "shared"). kShared turns on both shared Steiner trees and
  /// cross-query placement sharing; kPerSource is byte-identical to the
  /// pre-sharing behavior.
  TreeMode tree_mode = TreeMode::kPerSource;

  /// The paper's Section 6 learning settings: instant migration, a pass
  /// every 25 learn ticks, counters reset every 200. Leaves every other
  /// knob, the threshold included, as it is.
  void UsePaperLearning() {
    migration = Migration::kInstant;
    reopt_interval = 25;
    counter_reset_interval = 200;
  }
};

}  // namespace common
}  // namespace aspen

#endif  // ASPEN_COMMON_RUN_KNOBS_H_
