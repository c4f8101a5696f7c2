// Public facade: run a (workload, algorithm) experiment end to end.
//
// This is the entry point downstream users and every benchmark use:
//   auto wl = workload::Workload::MakeQuery1(&topo, {0.5, 0.5, 0.2}, 3, 42);
//   auto stats = core::RunExperiment(*wl, opts, /*cycles=*/100);
// Multi-seed averaging matches the paper's methodology (9 runs, 95% CIs).
// Scripted network dynamics (node churn, loss drift, bursts, blackouts)
// attach through ExperimentOptions::dynamics — see scenario/dynamics.h.

#ifndef ASPEN_CORE_ENGINE_H_
#define ASPEN_CORE_ENGINE_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "join/executor.h"
#include "join/medium.h"
#include "scenario/dynamics.h"
#include "workload/workload.h"

namespace aspen {
namespace core {

/// \brief Everything configuring one experiment beyond the workload.
struct ExperimentOptions {
  join::ExecutorOptions executor;
  /// Optional scripted network dynamics, replayed from the cycle clock
  /// (events for cycle N apply before cycle N's sample phase). Not owned;
  /// must outlive the call. RunAveraged replays the same schedule in every
  /// repetition.
  const scenario::DynamicsSchedule* dynamics = nullptr;
};

/// \brief Initiates and runs one experiment; returns its metrics. The query
/// runs alone on a SharedMedium built from join::NetworkOptionsFor and
/// join::SoloMediumOptions; knob values no run can execute
/// (join::ValidateOptions) return InvalidArgument.
Result<join::RunStats> RunExperiment(const workload::Workload& workload,
                                     const ExperimentOptions& options,
                                     int sampling_cycles);

/// Convenience overload without scenario dynamics.
Result<join::RunStats> RunExperiment(const workload::Workload& workload,
                                     const join::ExecutorOptions& options,
                                     int sampling_cycles);

// ---- service mode -----------------------------------------------------------
//
// The open-ended counterpart of RunExperiment: instead of one query run to
// completion, a SharedMedium executes an evolving population of queries —
// admissions and departures scripted as scenario events (see
// scenario::DynamicsSchedule::QueryChurn) — over a pool of workload
// templates. This is the paper's multi-concurrent-query setting operated
// as a long-running service rather than a batch experiment.

/// \brief Configuration of one service run.
struct ServiceOptions {
  /// Executor configuration applied to every admitted query. (The shards
  /// knob is taken from `medium`, not from here.)
  join::ExecutorOptions executor;
  /// Network configuration of the shared medium.
  net::NetworkOptions network;
  /// Medium configuration; allow_idle is forced on (a service idles
  /// between arrivals).
  join::MediumOptions medium;
  /// Scripted dynamics, including kQueryArrival/kQueryDeparture events.
  /// Not owned; must outlive the call.
  const scenario::DynamicsSchedule* dynamics = nullptr;
};

/// \brief Metrics of one service run: throughput inputs, churn counts, and
/// the data-plane occupancy trajectory that proves bounded footprint.
struct ServiceStats {
  int cycles = 0;
  int arrivals = 0;
  int departures = 0;
  /// Queries still live when the run ended (the resident set).
  int resident_queries = 0;
  /// Sum of results over every query, departed (ledger) and resident.
  uint64_t total_results = 0;
  uint64_t total_bytes = 0;
  uint64_t total_messages = 0;
  /// Live-route / payload-slab / frame-slab occupancy: one sample per
  /// arrival event, taken just *before* the admission (a steady
  /// checkpoint — earlier teardowns have been swept by then), plus one
  /// final sample after the run's straggler drain.
  struct OccupancySample {
    int cycle = 0;
    size_t routes_live = 0;
    size_t mcasts_live = 0;
    size_t payload_live = 0;
    size_t payload_capacity = 0;
    size_t frame_capacity = 0;
  };
  std::vector<OccupancySample> occupancy;
  /// Peak live-route count observed at any sample point.
  size_t peak_routes_live = 0;
  /// Finalized per-query records of every departed query.
  std::vector<join::SharedMedium::QueryRecord> ledger;
};

/// \brief An open-ended query service: a SharedMedium plus the scenario
/// driver that replays query arrivals/departures against it. Run() may be
/// called repeatedly to continue the service (benchmarks measure a steady
/// tail block after the churn horizon this way). Deterministic:
/// byte-identical results for any MediumOptions::shards value.
class ServiceRunner : private scenario::QueryHost {
 public:
  /// Validates the template pool (non-null, one topology) and the knobs
  /// (join::ValidateOptions), then builds the medium and driver.
  /// `options.dynamics` (if any) must outlive the runner; templates must
  /// too.
  static Result<std::unique_ptr<ServiceRunner>> Create(
      std::vector<const workload::Workload*> templates,
      const ServiceOptions& options);

  /// Continues the service for `cycles` sampling cycles.
  Status Run(int cycles);

  join::SharedMedium& medium() { return *medium_; }

  /// Churn counters and the occupancy trajectory collected so far.
  const ServiceStats& progress() const { return stats_; }

  /// Full metrics snapshot: progress() plus totals over the ledger and
  /// resident queries, and a fresh final occupancy sample.
  ServiceStats Finalize();

 private:
  ServiceRunner(std::vector<const workload::Workload*> templates,
                const ServiceOptions& options);

  Status OnQueryArrival(int slot, int template_id) override;
  Status OnQueryDeparture(int slot) override;
  void SampleOccupancy();

  std::vector<const workload::Workload*> templates_;
  join::ExecutorOptions exec_options_;
  std::unique_ptr<join::SharedMedium> medium_;
  std::unique_ptr<scenario::ScenarioDriver> driver_;
  std::vector<int> slot_to_query_;
  ServiceStats stats_;
};

/// \brief One-shot service run: Create + Run(cycles) + Finalize.
Result<ServiceStats> RunService(
    const std::vector<const workload::Workload*>& templates,
    const ServiceOptions& options, int cycles);

/// \brief Mean metrics over repeated runs, with 95% confidence half-widths
/// for the headline traffic numbers.
struct AggregatedStats {
  std::string algorithm;
  int runs = 0;
  double total_bytes = 0, total_bytes_ci = 0;
  double base_bytes = 0, base_bytes_ci = 0;
  double max_node_bytes = 0;
  double total_messages = 0, total_messages_ci = 0;
  double base_messages = 0;
  double max_node_messages = 0;
  double initiation_bytes = 0;
  double computation_bytes = 0;
  double results = 0;
  double avg_result_delay_cycles = 0;
  double max_result_delay_cycles = 0;
  double migrations = 0;
  double failovers = 0;
};

/// Builds a fresh workload for a given run seed (topology may be shared or
/// regenerated inside, caller's choice). Repetitions execute on a thread
/// pool, so the factory must be safe to invoke concurrently — sharing an
/// immutable Topology is fine; sharing mutable state is not.
using WorkloadFactory =
    std::function<Result<workload::Workload>(uint64_t seed)>;

/// \brief Runs `runs` independent repetitions (seeds seed0, seed0+1, ...)
/// in parallel on up to `num_threads` workers (0 = hardware concurrency)
/// and aggregates. Each repetition owns its workload, network, RNG and (if
/// a schedule is configured) scenario driver, and aggregation happens in
/// seed order, so results are bit-identical for any thread count. Any
/// failing repetition fails the whole call. When the executor options
/// request sharded runs (ExecutorOptions::knobs.shards > 1), the repetition
/// worker count is divided by the shard count so the two parallelism
/// levels together stay near the hardware concurrency.
Result<AggregatedStats> RunAveraged(const WorkloadFactory& factory,
                                    const ExperimentOptions& options,
                                    int sampling_cycles, int runs,
                                    uint64_t seed0 = 1, int num_threads = 0);

/// Convenience overload without scenario dynamics.
Result<AggregatedStats> RunAveraged(const WorkloadFactory& factory,
                                    const join::ExecutorOptions& options,
                                    int sampling_cycles, int runs,
                                    uint64_t seed0 = 1, int num_threads = 0);

}  // namespace core
}  // namespace aspen

#endif  // ASPEN_CORE_ENGINE_H_
