// Shared types for the join-execution layer.

#ifndef ASPEN_JOIN_TYPES_H_
#define ASPEN_JOIN_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_knobs.h"
#include "net/topology.h"
#include "routing/summary.h"
#include "workload/selectivity.h"

namespace aspen {
namespace join {

/// \brief The join algorithm classes of Section 2.2.
enum class Algorithm : uint8_t {
  kNaive,   ///< grouped at base, no per-query setup
  kBase,    ///< grouped at base with static pre-computation
  kYang07,  ///< through-the-base [16]
  kGht,     ///< grouped at hashed node (GHT on motes, DHT ring in mesh mode)
  kInnet,   ///< pairwise in-network with cost-based placement
};

/// \brief Optional Innet techniques (Section 5 / Appendix E).
/// Variant naming follows the paper: Innet-c m p g =
/// combining (opportunistic packet merging), multicast trees,
/// path collapsing, group optimization.
struct InnetFeatures {
  bool combining = false;
  bool multicast = false;
  bool path_collapse = false;
  bool group_opt = false;

  static InnetFeatures None() { return {}; }
  static InnetFeatures Cm() { return {true, true, false, false}; }
  static InnetFeatures Cmg() { return {true, true, false, true}; }
  static InnetFeatures Cmp() { return {true, true, true, false}; }
  static InnetFeatures Cmpg() { return {true, true, true, true}; }
};

/// Display name matching the paper's figure legends ("Innet-cmg", ...).
std::string AlgorithmName(Algorithm algo, const InnetFeatures& f);

/// \brief Executor configuration.
struct ExecutorOptions {
  Algorithm algorithm = Algorithm::kInnet;
  InnetFeatures features;

  /// The selectivity estimates given to the optimizer. May differ from the
  /// workload's true generation parameters (Figures 4, 8, 10, 11).
  workload::SelectivityParams assumed;

  /// Oracle mode (Figure 12's "Full knowledge"): the optimizer reads each
  /// pair's true per-node parameters from the workload instead of `assumed`.
  bool oracle = false;

  /// Summary structure indexing the primary join key (ablation knob).
  routing::SummaryType summary_type = routing::SummaryType::kBloom;

  /// Routing substrate width for Innet exploration.
  int num_trees = 3;

  /// Appendix F: mesh mode — DHT rendezvous instead of GHT, no snooping /
  /// path collapsing (802.11 link layer unmodified); evaluation counts
  /// messages rather than bytes.
  bool mesh_mode = false;

  /// Radio loss probability and retransmission bound (TOSSIM-style).
  double loss_prob = 0.0;
  int max_retries = 3;

  /// Run-shape knobs shared with MediumOptions / core::ServiceOptions
  /// (common/run_knobs.h). Re-optimization (Section 6) is per query, so
  /// every executor reads its own adaptation knobs (`reopt_interval`,
  /// `reopt_threshold`, `migration`, `counter_reset_interval`) and
  /// `tree_mode`; `knobs.UsePaperLearning()` selects the paper's learning
  /// loop. Sharding, pipelining and the sampling clock belong to the
  /// hosting medium's scheduler (join::MediumOptions::knobs);
  /// core::RunExperiment copies them from here into the one-query medium
  /// it runs.
  common::RunKnobs knobs;

  uint64_t seed = 1;
};

/// \brief Metrics of one executed run (the paper's evaluation quantities).
struct RunStats {
  std::string algorithm;
  // Traffic.
  uint64_t total_bytes = 0;
  uint64_t base_bytes = 0;
  uint64_t max_node_bytes = 0;
  uint64_t total_messages = 0;
  uint64_t base_messages = 0;
  uint64_t max_node_messages = 0;
  uint64_t initiation_bytes = 0;
  uint64_t computation_bytes = 0;
  /// Traffic attributable to this query alone: its share of the
  /// medium-wide counters (equal to total_bytes / total_messages when the
  /// query runs alone).
  uint64_t query_bytes = 0;
  uint64_t query_messages = 0;
  /// Loads of the 15 most-loaded nodes (Figure 5), descending. They come
  /// from the medium-wide per-node counters: on a shared medium every
  /// co-resident query reports the medium's top loads, not its own.
  std::vector<uint64_t> top_node_loads;
  // Results.
  uint64_t results = 0;
  double avg_result_delay_cycles = 0.0;  ///< sampling cycles sample->base
  double max_result_delay_cycles = 0.0;
  // Adaptivity.
  uint64_t migrations = 0;       ///< join-node relocations (Section 6)
  uint64_t failovers = 0;        ///< pairs switched to base after failure
  uint64_t reopt_passes = 0;     ///< re-optimization passes (planned policy)
  uint64_t planned_migrations = 0;  ///< migrations via the 3-phase protocol
  // Initiation latency (transmission cycles until execution could start).
  int init_latency_cycles = 0;
  int sampling_cycles = 0;
};

/// Canonical (s, t) producer-pair key.
struct PairKey {
  net::NodeId s = -1;
  net::NodeId t = -1;
  bool operator==(const PairKey& o) const { return s == o.s && t == o.t; }
  bool operator<(const PairKey& o) const {
    return s != o.s ? s < o.s : t < o.t;
  }
};

}  // namespace join
}  // namespace aspen

#endif  // ASPEN_JOIN_TYPES_H_
