// Long-running query service under churn: a 10,000-node mesh executes a
// changing population of concurrent queries — hundreds of scripted
// arrivals and departures over a workload template pool — for thousands of
// sampling cycles, and must prove *bounded* data-plane footprint: route
// table and payload pools return to the resident-query baseline after
// every churn wave, and steady-state cycles allocate nothing.
//
// This is the service-mode acceptance harness (DESIGN.md "Query
// lifecycle") and doubles as the CI leak gate: the bench exits non-zero
// when route/multicast occupancy fails to return to the post-first-wave
// baseline, when occupancy grows monotonically across waves, when heap in
// use grows past its per-departure allowance after the first wave, or when
// the steady tail block (run after the last departure) touches the heap.
//
// Output: console summary + BENCH_service_churn.json. With
// ASPEN_STATS_OUT set, a deterministic digest for the shard 1-vs-4
// determinism gate (results, traffic fingerprint, occupancy trajectory —
// everything but timing and the per-shard frame slabs).
//
// `--smoke` shrinks the mesh and the churn horizon for CI.

#include <chrono>
#include <cstdlib>
#include <vector>

#include "bench/alloc_audit.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "join/medium.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "sim/cycle_scheduler.h"
#include "workload/workload.h"

namespace aspen {
namespace {

/// Reads heap in use (allocaudit::HeapInUseBytes: arena and mmapped
/// blocks, summed over every arena) in the learn phase of the last cycle
/// of each churn wave. Every instance of a wave departs strictly inside
/// it, so each sample sees only the residents live; what grows from one
/// sample to the next is what departures leave behind.
class HeapProbe : public sim::CycleParticipant {
 public:
  HeapProbe(int first_wave_end, int wave_period, int waves)
      : first_wave_end_(first_wave_end),
        wave_period_(wave_period),
        waves_(waves) {
    samples_.reserve(waves);
  }

  Status OnLearn(int cycle) override {
    if (cycle >= first_wave_end_ &&
        (cycle - first_wave_end_) % wave_period_ == 0 &&
        samples_.size() < static_cast<size_t>(waves_)) {
      samples_.push_back(allocaudit::HeapInUseBytes());
    }
    return Status::OK();
  }

  const std::vector<size_t>& samples() const { return samples_; }

 private:
  int first_wave_end_;
  int wave_period_;
  int waves_;
  std::vector<size_t> samples_;
};

int Main(int argc, char** argv) {
  const bool smoke = benchutil::ConsumeSmokeFlag(&argc, argv);

  // Full run: 10k nodes, 10 waves x 10 queries (+2 residents) over ~2000
  // cycles. Smoke keeps the same structure on a smaller mesh and horizon.
  const int grid_side = smoke ? 40 : 100;
  const int waves = smoke ? 2 : 10;
  const int per_wave = smoke ? 3 : 10;
  const int wave_period = smoke ? 24 : 180;
  const int min_life = smoke ? 6 : 40;
  const int max_life = smoke ? 12 : 120;
  const int churn_start = smoke ? 10 : 40;
  const int num_pairs = smoke ? 40 : 200;
  const int settle_cycles = smoke ? 6 : 80;
  const int tail_cycles = benchutil::CyclesFromEnv(smoke ? 10 : 100);
  const int shards = benchutil::ShardsFromEnv();
  const int pipeline = benchutil::PipelineFromEnv();

  benchutil::PrintHeader(
      "bench_service_churn",
      "long-running mesh query service under arrival/departure churn");

  auto topo = benchutil::OrDie(
      net::Topology::Grid(grid_side, grid_side, 25.6 * grid_side));
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  // Template pool: three Query-0 instances with distinct pair sets.
  std::vector<workload::Workload> pool;
  pool.reserve(3);
  for (uint64_t seed : {7ULL, 8ULL, 9ULL}) {
    pool.push_back(benchutil::OrDie(workload::Workload::MakeQuery0(
        &topo, sel, num_pairs, /*window=*/3, seed)));
  }
  std::vector<const workload::Workload*> templates;
  for (const auto& wl : pool) templates.push_back(&wl);

  // Scripted churn: wave-structured arrivals/departures, plus two resident
  // queries (admitted up front, never departing) so the steady tail block
  // measures a *serving* medium, not an idle one.
  scenario::DynamicsSchedule::QueryChurnOptions churn;
  churn.start_cycle = churn_start;
  churn.waves = waves;
  churn.arrivals_per_wave = per_wave;
  churn.wave_period = wave_period;
  churn.min_lifetime = min_life;
  churn.max_lifetime = max_life;
  churn.num_templates = static_cast<int>(templates.size());
  churn.seed = 42;
  scenario::DynamicsSchedule schedule =
      scenario::DynamicsSchedule::QueryChurn(churn);
  const int resident_slot_base = waves * per_wave;
  scenario::DynamicsSchedule full;
  full.ArriveAt(0, resident_slot_base + 0, 0);
  full.ArriveAt(0, resident_slot_base + 1, 1);
  for (const auto& e : schedule.events()) full.Add(e);

  core::ServiceOptions opts;
  opts.executor.algorithm = join::Algorithm::kInnet;
  opts.executor.features = join::InnetFeatures::Cm();
  opts.executor.assumed = sel;
  opts.executor.mesh_mode = true;
  opts.medium.knobs.shards = shards;
  opts.medium.knobs.pipeline_depth = pipeline;
  // ASPEN_TREE_MODE=shared runs the whole churn scenario with shared
  // Steiner trees and cross-query placement sharing, so every departure
  // wave exercises owner hand-off (DetachShared promotion) under the
  // same leak and determinism gates.
  opts.executor.knobs.tree_mode = benchutil::TreeModeFromEnv();
  opts.medium.knobs.tree_mode = opts.executor.knobs.tree_mode;
  opts.dynamics = &full;

  HeapProbe heap_probe(churn_start + wave_period - 1, wave_period, waves);
  auto runner =
      benchutil::OrDie(core::ServiceRunner::Create(templates, opts));
  runner->medium().scheduler()->Attach(&heap_probe);

  const int churn_horizon = churn_start + waves * wave_period;
  auto t0 = std::chrono::steady_clock::now();
  Status st = runner->Run(churn_horizon + settle_cycles);
  auto t1 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }

  // Steady tail: every churned query has departed; only the two residents
  // are serving. These cycles must not touch the heap.
  allocaudit::ResetCount();
  allocaudit::SetCounting(true);
  auto t2 = std::chrono::steady_clock::now();
  st = runner->Run(tail_cycles);
  auto t3 = std::chrono::steady_clock::now();
  allocaudit::SetCounting(false);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t tail_allocs = allocaudit::Count();

  core::ServiceStats stats = runner->Finalize();
  const double churn_s = std::chrono::duration<double>(t1 - t0).count();
  const double tail_s = std::chrono::duration<double>(t3 - t2).count();
  const double tail_cycles_per_sec = tail_cycles / tail_s;

  // ---- occupancy gates ------------------------------------------------------
  // Pre-arrival checkpoints: samples 0..1 are the residents; churn wave w
  // (0-based) contributes samples [2 + w*per_wave, 2 + (w+1)*per_wave).
  // The checkpoint before wave w+1's first arrival is the steady state
  // after wave w fully drained; the last sample is the post-run state.
  int failures = 0;
  const auto& occ = stats.occupancy;
  const size_t base_idx = 2 + static_cast<size_t>(per_wave);  // after wave 0
  if (occ.size() < base_idx + 1) {
    std::fprintf(stderr, "GATE FAIL: missing occupancy samples (%zu)\n",
                 occ.size());
    return 1;
  }
  const auto& base = occ[base_idx];
  const auto& fin = occ.back();
  if (fin.routes_live != base.routes_live ||
      fin.mcasts_live != base.mcasts_live) {
    std::fprintf(stderr,
                 "GATE FAIL: steady-state route occupancy %zu+%zu != "
                 "post-first-wave baseline %zu+%zu (leak)\n",
                 fin.routes_live, fin.mcasts_live, base.routes_live,
                 base.mcasts_live);
    ++failures;
  }
  // Monotonic-growth leak check across wave baselines.
  bool routes_grew = true;
  bool capacity_grew = true;
  for (int w = 2; w < waves; ++w) {
    const auto& prev = occ[2 + static_cast<size_t>(w - 1) * per_wave];
    const auto& cur = occ[2 + static_cast<size_t>(w) * per_wave];
    if (cur.routes_live <= prev.routes_live) routes_grew = false;
    if (cur.payload_capacity <= prev.payload_capacity) capacity_grew = false;
  }
  if (waves > 2 && (routes_grew || capacity_grew)) {
    std::fprintf(stderr,
                 "GATE FAIL: %s grows monotonically across churn waves\n",
                 routes_grew ? "route occupancy" : "payload capacity");
    ++failures;
  }
  // Heap gate: from the post-first-wave sample to the last, heap in use
  // may grow by a departed query's ledger record per departure in between
  // (about 540 B measured on the full run), plus a one-off allowance for
  // pooled capacity a later wave may still add (payload slots and their
  // tuple buffers, route-table slots: 7-22 KB on the two-wave smoke run).
  // Per-node state kept per departed query (8 B x nodes: 12.8 KB on the
  // smoke mesh, 80 KB on the full one) exceeds it.
  constexpr int64_t kHeapBytesPerDeparture = 2048;
  constexpr int64_t kHeapWarmupBytes = 28 * 1024;
  const std::vector<size_t>& heap = heap_probe.samples();
  const int heap_departures = (waves - 1) * per_wave;
  const int64_t heap_allowance =
      kHeapWarmupBytes + kHeapBytesPerDeparture * heap_departures;
  const int64_t heap_growth =
      heap.empty() ? 0
                   : static_cast<int64_t>(heap.back()) -
                         static_cast<int64_t>(heap.front());
  if (heap.size() != static_cast<size_t>(waves)) {
    std::fprintf(stderr, "GATE FAIL: missing heap samples (%zu of %d)\n",
                 heap.size(), waves);
    ++failures;
  } else if (heap_growth > heap_allowance) {
    std::fprintf(stderr,
                 "GATE FAIL: heap in use grew %lld B over %d departures "
                 "(allowance %lld B)\n",
                 static_cast<long long>(heap_growth), heap_departures,
                 static_cast<long long>(heap_allowance));
    ++failures;
  }
  const uint64_t alloc_bound = shards > 1 ? shards : 0;
  if (tail_allocs > alloc_bound) {
    std::fprintf(stderr,
                 "GATE FAIL: steady tail allocated (%llu allocs over %d "
                 "cycles; bound %llu)\n",
                 static_cast<unsigned long long>(tail_allocs), tail_cycles,
                 static_cast<unsigned long long>(alloc_bound));
    ++failures;
  }

  std::printf("nodes                 %d\n", topo.num_nodes());
  std::printf("shards                %d\n", shards);
  std::printf("pipeline depth        %d\n", pipeline);
  std::printf("cycles                %d (churn+settle) + %d steady tail\n",
              churn_horizon + settle_cycles, tail_cycles);
  std::printf("query events          %d arrivals, %d departures "
              "(%d resident)\n",
              stats.arrivals, stats.departures, stats.resident_queries);
  std::printf("results delivered     %llu\n",
              static_cast<unsigned long long>(stats.total_results));
  std::printf("churn phase           %.2f s\n", churn_s);
  std::printf("steady throughput     %.1f cycles/s (%.2f ms/cycle)\n",
              tail_cycles_per_sec, 1e3 * tail_s / tail_cycles);
  std::printf("route occupancy       peak %zu live, steady %zu "
              "(baseline %zu)\n",
              stats.peak_routes_live, fin.routes_live, base.routes_live);
  std::printf("payload pools         %zu live / %zu slots at end\n",
              fin.payload_live, fin.payload_capacity);
  std::printf("frame slab            %zu slots\n", fin.frame_capacity);
  std::printf("heap growth           %lld B over %d departures after "
              "wave 1 (allowance %lld B)\n",
              static_cast<long long>(heap_growth), heap_departures,
              static_cast<long long>(heap_allowance));
  std::printf("steady-tail allocs    %llu\n",
              static_cast<unsigned long long>(tail_allocs));
  std::printf("leak gate             %s\n", failures == 0 ? "PASS" : "FAIL");

  benchutil::JsonReport report("BENCH_service_churn.json");
  report.Add("service_churn", "nodes", topo.num_nodes());
  report.Add("service_churn", "shards", shards);
  report.Add("service_churn", "pipeline_depth", pipeline);
  report.Add("service_churn", "arrivals", stats.arrivals);
  report.Add("service_churn", "departures", stats.departures);
  report.Add("service_churn", "steady_cycles_per_sec", tail_cycles_per_sec);
  report.Add("service_churn", "tail_allocs",
             static_cast<double>(tail_allocs));
  report.Add("service_churn", "peak_routes_live",
             static_cast<double>(stats.peak_routes_live));
  report.Add("service_churn", "steady_routes_live",
             static_cast<double>(fin.routes_live));
  report.Add("service_churn", "payload_capacity",
             static_cast<double>(fin.payload_capacity));
  report.Add("service_churn", "total_results",
             static_cast<double>(stats.total_results));
  report.Write();

  // Deterministic digest for the shard 1-vs-4 gate. Frame-slab capacity is
  // per-shard (partition-dependent) and timing is wall-clock; everything
  // else must be byte-identical across shard counts.
  benchutil::DeterminismLog det;
  if (det.enabled()) {
    det.Add("nodes", topo.num_nodes());
    det.Add("arrivals", stats.arrivals);
    det.Add("departures", stats.departures);
    det.Add("results", stats.total_results);
    det.Add("total_bytes", stats.total_bytes);
    det.Add("total_messages", stats.total_messages);
    det.Add("traffic_fingerprint",
            benchutil::TrafficFingerprint(runner->medium().stats()));
    det.Add("peak_routes_live", stats.peak_routes_live);
    for (size_t i = 0; i < occ.size(); ++i) {
      const auto& s = occ[i];
      const std::string key = "occ" + std::to_string(i);
      det.Add(key + "_cycle", static_cast<uint64_t>(s.cycle));
      det.Add(key + "_routes", s.routes_live);
      det.Add(key + "_mcasts", s.mcasts_live);
      det.Add(key + "_payload_live", s.payload_live);
      det.Add(key + "_payload_cap", s.payload_capacity);
    }
    uint64_t ledger_results = 0;
    for (const auto& rec : stats.ledger) ledger_results += rec.stats.results;
    det.Add("ledger_entries", stats.ledger.size());
    det.Add("ledger_results", ledger_results);
    if (!det.Write()) return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) { return aspen::Main(argc, argv); }
