// The one definition of the run-shape knobs shared by every options struct.
//
// ExecutorOptions (one query), MediumOptions (the medium hosting one or
// many queries) and, transitively, core::ExperimentOptions /
// core::ServiceOptions used to re-declare the same knobs — shard count,
// pipeline depth, sampling clock — with subtly independent defaults. They
// now all embed one RunKnobs, so a knob exists in exactly one place, the
// env-variable parsing lives in exactly one bench helper
// (benchutil::KnobsFromEnv: ASPEN_SHARDS / ASPEN_PIPELINE / ASPEN_REOPT),
// and new run-wide knobs (the re-optimization interval below) are added
// once instead of three times.

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

  /// Continuous re-optimization period, in sampling cycles: every
  /// `reopt_interval` cycles the executor re-estimates selectivities from
  /// live traffic and, where the estimate diverged past `reopt_threshold`,
  /// re-runs the cost model and executes a planned placement migration
  /// (DESIGN.md "Continuous re-optimization"). 0 disables the loop — the
  /// plan stays frozen at admission, the pre-reopt behavior.
  int reopt_interval = 0;

  /// Relative divergence between a live estimate and the estimate the
  /// current placement was chosen with that arms a re-optimization pass
  /// for a pair. The paper's Section 6 trigger: 33%.
  double reopt_threshold = 0.33;

  /// Producer multicast tree policy (ASPEN_TREE_MODE: "per_source" |
  /// "shared"). kShared turns on both shared Steiner trees and
  /// cross-query placement sharing; kPerSource is byte-identical to the
  /// pre-sharing behavior.
  TreeMode tree_mode = TreeMode::kPerSource;
};

}  // namespace common
}  // namespace aspen

#endif  // ASPEN_COMMON_RUN_KNOBS_H_
