#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"

namespace aspen {
namespace core {

Result<join::RunStats> RunExperiment(const workload::Workload& workload,
                                     const ExperimentOptions& options,
                                     int sampling_cycles) {
  join::MediumOptions medium_opts =
      join::SoloMediumOptions(workload, options.executor);
  ASPEN_RETURN_NOT_OK(join::ValidateOptions(options.executor, medium_opts));
  join::SharedMedium medium(&workload.topology(),
                            join::NetworkOptionsFor(options.executor),
                            medium_opts);
  ASPEN_ASSIGN_OR_RETURN(join::JoinExecutor * exec,
                         medium.TryAddQuery(&workload, options.executor));
  ASPEN_RETURN_NOT_OK(exec->Initiate());
  std::optional<scenario::ScenarioDriver> driver;
  if (options.dynamics != nullptr && !options.dynamics->empty()) {
    driver.emplace(&medium.network(), options.dynamics);
    // Front of the participant list: cycle-N events mutate the network
    // before any sampling at cycle N.
    medium.scheduler()->AttachFront(&*driver);
  }
  ASPEN_RETURN_NOT_OK(medium.RunCycles(sampling_cycles));
  return exec->Stats();
}

Result<join::RunStats> RunExperiment(const workload::Workload& workload,
                                     const join::ExecutorOptions& options,
                                     int sampling_cycles) {
  ExperimentOptions exp;
  exp.executor = options;
  return RunExperiment(workload, exp, sampling_cycles);
}

// ---- service mode ----------------------------------------------------------

ServiceRunner::ServiceRunner(
    std::vector<const workload::Workload*> templates,
    const ServiceOptions& options)
    : templates_(std::move(templates)), exec_options_(options.executor) {
  join::MediumOptions medium_opts = options.medium;
  medium_opts.allow_idle = true;  // a service idles between arrivals
  medium_ = std::make_unique<join::SharedMedium>(
      &templates_[0]->topology(), options.network, medium_opts);
  if (options.dynamics != nullptr && !options.dynamics->empty()) {
    driver_ = std::make_unique<scenario::ScenarioDriver>(&medium_->network(),
                                                         options.dynamics);
    medium_->scheduler()->AttachFront(driver_.get());
  }
  // The query host attaches in Create(): set_query_host dispatches eagerly
  // and returns a status, which a constructor cannot propagate.
}

Result<std::unique_ptr<ServiceRunner>> ServiceRunner::Create(
    std::vector<const workload::Workload*> templates,
    const ServiceOptions& options) {
  if (templates.empty()) {
    return Status::InvalidArgument("ServiceRunner: empty template pool");
  }
  const net::Topology* topo = &templates[0]->topology();
  for (const workload::Workload* wl : templates) {
    if (wl == nullptr) {
      return Status::InvalidArgument("ServiceRunner: null workload template");
    }
    if (&wl->topology() != topo) {
      return Status::InvalidArgument(
          "ServiceRunner: templates span multiple topologies");
    }
  }
  ASPEN_RETURN_NOT_OK(join::ValidateOptions(options.executor, options.medium));
  std::unique_ptr<ServiceRunner> runner(
      new ServiceRunner(std::move(templates), options));
  if (runner->driver_ != nullptr) {
    // Service templates are shared const workloads, so the runner keeps
    // QueryHost's default OnSelectivityShift: a schedule that scripts a
    // shift against a service run fails here, eagerly, with that message.
    ASPEN_RETURN_NOT_OK(runner->driver_->set_query_host(runner.get()));
  }
  return runner;
}

Status ServiceRunner::Run(int cycles) {
  ASPEN_RETURN_NOT_OK(medium_->RunCycles(cycles));
  stats_.cycles += cycles;
  return Status::OK();
}

Status ServiceRunner::OnQueryArrival(int slot, int template_id) {
  if (slot < 0 || template_id < 0) {
    return Status::InvalidArgument("service: negative query slot/template");
  }
  if (static_cast<size_t>(template_id) >= templates_.size()) {
    return Status::InvalidArgument(
        "service: template " + std::to_string(template_id) +
        " outside the pool of " + std::to_string(templates_.size()));
  }
  // Validate the slot before admitting anything: a duplicate must not
  // leave an orphaned live query behind. Slots are sparse handles (a
  // schedule may number residents far above its churn slots), but a typo'd
  // huge slot must fail cleanly rather than allocate the slot table.
  constexpr int kMaxSlot = 1 << 20;
  if (slot > kMaxSlot) {
    return Status::InvalidArgument("service: query slot " +
                                   std::to_string(slot) + " exceeds " +
                                   std::to_string(kMaxSlot));
  }
  if (static_cast<size_t>(slot) >= slot_to_query_.size()) {
    slot_to_query_.resize(slot + 1, -1);
  }
  if (slot_to_query_[slot] != -1) {
    return Status::AlreadyExists("service: query slot " +
                                 std::to_string(slot) + " already live");
  }
  // Steady-state checkpoint just before the admission: teardowns from
  // earlier waves have been swept by now, so this sample exposes any
  // monotonic occupancy growth across churn waves. Failed admissions pop
  // it again — the trajectory holds one sample per successful arrival.
  SampleOccupancy();
  auto admitted = medium_->TryAddQuery(templates_[template_id], exec_options_);
  if (!admitted.ok()) {
    stats_.occupancy.pop_back();
    return admitted.status();
  }
  join::JoinExecutor* exec = *admitted;
  Status init = exec->Initiate();
  if (!init.ok()) {
    // Roll the admission back: the medium must not retain a live query no
    // slot can ever address (never-initiated queries get no ledger entry).
    (void)medium_->RemoveQuery(exec->query_id());
    stats_.occupancy.pop_back();
    return init;
  }
  slot_to_query_[slot] = exec->query_id();
  ++stats_.arrivals;
  return Status::OK();
}

Status ServiceRunner::OnQueryDeparture(int slot) {
  if (slot < 0 || static_cast<size_t>(slot) >= slot_to_query_.size() ||
      slot_to_query_[slot] < 0) {
    return Status::NotFound("service: departure for unknown query slot " +
                            std::to_string(slot));
  }
  ASPEN_RETURN_NOT_OK(medium_->RemoveQuery(slot_to_query_[slot]));
  slot_to_query_[slot] = -1;
  ++stats_.departures;
  return Status::OK();
}

void ServiceRunner::SampleOccupancy() {
  ServiceStats::OccupancySample s;
  s.cycle = medium_->scheduler()->cycle();
  net::Network& net = medium_->network();
  s.routes_live = net.routes().live_paths();
  s.mcasts_live = net.routes().live_multicasts();
  s.payload_live = net.payloads().live();
  s.payload_capacity = net.payloads().capacity();
  s.frame_capacity = net.frame_slab_capacity();
  stats_.occupancy.push_back(s);
  stats_.peak_routes_live = std::max(stats_.peak_routes_live, s.routes_live);
}

ServiceStats ServiceRunner::Finalize() {
  // Final steady-state checkpoint: Run() ends with a straggler drain, so
  // retired routes have been swept.
  SampleOccupancy();
  ServiceStats out = stats_;
  out.resident_queries = medium_->num_queries();
  out.total_bytes = medium_->stats().TotalBytesSent();
  out.total_messages = medium_->stats().TotalMessagesSent();
  out.ledger = medium_->ledger();
  out.total_results = 0;
  for (const auto& rec : out.ledger) {
    out.total_results += rec.stats.results;
  }
  for (int id : medium_->live_query_ids()) {
    out.total_results += medium_->executor(id).results();
  }
  return out;
}

Result<ServiceStats> RunService(
    const std::vector<const workload::Workload*>& templates,
    const ServiceOptions& options, int cycles) {
  ASPEN_ASSIGN_OR_RETURN(std::unique_ptr<ServiceRunner> runner,
                         ServiceRunner::Create(templates, options));
  ASPEN_RETURN_NOT_OK(runner->Run(cycles));
  return runner->Finalize();
}

namespace {

struct Welford {
  double sum = 0, sumsq = 0;
  int n = 0;
  void Add(double x) {
    sum += x;
    sumsq += x * x;
    ++n;
  }
  double Mean() const { return n > 0 ? sum / n : 0.0; }
  /// 95% CI half-width (normal approximation; the paper reports 95% CIs
  /// over 9 runs).
  double Ci95() const {
    if (n < 2) return 0.0;
    double var = (sumsq - sum * sum / n) / (n - 1);
    return 1.96 * std::sqrt(std::max(var, 0.0) / n);
  }
};

}  // namespace

Result<AggregatedStats> RunAveraged(const WorkloadFactory& factory,
                                    const ExperimentOptions& options,
                                    int sampling_cycles, int runs,
                                    uint64_t seed0, int num_threads) {
  // Repetitions are embarrassingly parallel: each owns its workload,
  // network and RNG. Run them on the pool, then aggregate serially in seed
  // order so the floating-point reduction is identical for any thread
  // count.
  //
  // Sharded repetitions multiply the thread footprint: each repetition
  // spins up its own shard pool, so divide the repetition workers by the
  // shard count to keep the total near the hardware concurrency. (The
  // result is unaffected: both levels are bit-deterministic.)
  if (num_threads <= 0) num_threads = common::DefaultThreadCount();
  int footprint = std::max(1, options.executor.knobs.shards);
  // A pipelined run adds a stage pool of the same width as the shard pool.
  if (options.executor.knobs.pipeline_depth > 1) footprint *= 2;
  if (footprint > 1) {
    num_threads = std::max(1, num_threads / footprint);
  }
  std::vector<Result<join::RunStats>> outcomes(
      runs, Result<join::RunStats>(Status::Internal("repetition not run")));
  // Fail fast: once any repetition errors, later ones are skipped (indices
  // are claimed in seed order, so the first non-OK outcome below is always
  // a real error, never a skipped slot).
  std::atomic<bool> failed{false};
  common::ParallelFor(runs, num_threads, [&](int r) {
    if (failed.load(std::memory_order_relaxed)) return;
    auto wl = factory(seed0 + r);
    if (!wl.ok()) {
      outcomes[r] = wl.status();
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    ExperimentOptions opts = options;
    opts.executor.seed = seed0 + r;
    outcomes[r] = RunExperiment(*wl, opts, sampling_cycles);
    if (!outcomes[r].ok()) failed.store(true, std::memory_order_relaxed);
  });
  AggregatedStats agg;
  Welford total_b, base_b, max_b, total_m, base_m, max_m, init_b, comp_b,
      results, delay, max_delay, migrations, failovers;
  for (int r = 0; r < runs; ++r) {
    ASPEN_RETURN_NOT_OK(outcomes[r].status());
    const join::RunStats& st = *outcomes[r];
    agg.algorithm = st.algorithm;
    total_b.Add(static_cast<double>(st.total_bytes));
    base_b.Add(static_cast<double>(st.base_bytes));
    max_b.Add(static_cast<double>(st.max_node_bytes));
    total_m.Add(static_cast<double>(st.total_messages));
    base_m.Add(static_cast<double>(st.base_messages));
    max_m.Add(static_cast<double>(st.max_node_messages));
    init_b.Add(static_cast<double>(st.initiation_bytes));
    comp_b.Add(static_cast<double>(st.computation_bytes));
    results.Add(static_cast<double>(st.results));
    delay.Add(st.avg_result_delay_cycles);
    max_delay.Add(st.max_result_delay_cycles);
    migrations.Add(static_cast<double>(st.migrations));
    failovers.Add(static_cast<double>(st.failovers));
  }
  agg.runs = runs;
  agg.total_bytes = total_b.Mean();
  agg.total_bytes_ci = total_b.Ci95();
  agg.base_bytes = base_b.Mean();
  agg.base_bytes_ci = base_b.Ci95();
  agg.max_node_bytes = max_b.Mean();
  agg.total_messages = total_m.Mean();
  agg.total_messages_ci = total_m.Ci95();
  agg.base_messages = base_m.Mean();
  agg.max_node_messages = max_m.Mean();
  agg.initiation_bytes = init_b.Mean();
  agg.computation_bytes = comp_b.Mean();
  agg.results = results.Mean();
  agg.avg_result_delay_cycles = delay.Mean();
  agg.max_result_delay_cycles = max_delay.Mean();
  agg.migrations = migrations.Mean();
  agg.failovers = failovers.Mean();
  return agg;
}

Result<AggregatedStats> RunAveraged(const WorkloadFactory& factory,
                                    const join::ExecutorOptions& options,
                                    int sampling_cycles, int runs,
                                    uint64_t seed0, int num_threads) {
  ExperimentOptions exp;
  exp.executor = options;
  return RunAveraged(factory, exp, sampling_cycles, runs, seed0, num_threads);
}

}  // namespace core
}  // namespace aspen
