// 100,000-node scale-up: the ROADMAP's "service scale" made practical by
// the spatial-index topology generator and the batched sample/filter
// kernel.
//
// bench_mesh_10k showed the zero-allocation data plane; this bench pushes
// two further orders of magnitude past the paper's mesh evaluation with a
// windowed join over a 316x316 grid (99,856 nodes, ~8 neighbors). The two
// bottlenecks that made this impractical were topology construction
// (all-pairs O(n^2) adjacency — hours at this scale; the uniform-grid index
// builds it in well under a second) and the per-node sample-phase loop (now
// one batched filter pass over the cached producer set per shard).
//
// The steady-state allocation audit is a hard gate here, not a report: the
// measured block must not allocate at all. Payload slabs are pre-grown at
// Initiate and every per-shard scratch is pre-sized to its producer count,
// so a nonzero count means a regression.
//
// Output: console summary + BENCH_mesh_100k.json (init seconds, cycles/sec,
// bytes, allocs/cycle) for the perf trajectory.
//
// `--smoke` shrinks the run for CI (same topology, fewer cycles).

#include <chrono>
#include <cstdlib>

#include "bench/alloc_audit.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace aspen {
namespace {

int Main(int argc, char** argv) {
  allocaudit::SetCounting(true);  // the whole run is audited
  const bool smoke = benchutil::ConsumeSmokeFlag(&argc, argv);
  const int warmup_cycles = smoke ? 5 : 30;
  const int measured_cycles = benchutil::CyclesFromEnv(smoke ? 10 : 100);

  benchutil::PrintHeader("bench_mesh_100k",
                         "100,000-node grid join (spatial index + batched "
                         "sample kernel)");

  // 316x316 at the 10k bench's 25.6 m spacing: 99,856 nodes, ~8 neighbors.
  auto t_topo0 = std::chrono::steady_clock::now();
  auto topo = benchutil::OrDie(net::Topology::Grid(316, 316, 8089.6));
  auto t_topo1 = std::chrono::steady_clock::now();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = benchutil::OrDie(
      workload::Workload::MakeQuery0(&topo, sel, /*num_pairs=*/5000,
                                     /*window=*/3, /*seed=*/7));

  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();
  opts.assumed = sel;
  opts.mesh_mode = true;
  opts.knobs = benchutil::KnobsFromEnv();
  // The default 128-bit Bloom summaries (sized for mote RAM) saturate far
  // below 5,000 distinct join keys, which would degenerate exploration
  // into a network-wide flood. Mesh-class hardware can afford the exact
  // routing tables (the ablation baseline), which keep exploration pruned
  // at this scale.
  opts.summary_type = routing::SummaryType::kExact;

  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
  auto t0 = std::chrono::steady_clock::now();
  Status st = exec.Initiate();
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }
  auto t1 = std::chrono::steady_clock::now();
  st = medium.RunCycles(warmup_cycles);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }

  const uint64_t allocs_before = allocaudit::Count();
  const uint64_t bytes_before = exec.network().stats().TotalBytesSent();
  auto t2 = std::chrono::steady_clock::now();
  st = medium.RunCycles(measured_cycles);
  auto t3 = std::chrono::steady_clock::now();
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t allocs = allocaudit::Count() - allocs_before;
  const uint64_t bytes = exec.network().stats().TotalBytesSent() - bytes_before;

  const double topo_s = std::chrono::duration<double>(t_topo1 - t_topo0).count();
  const double init_s = std::chrono::duration<double>(t1 - t0).count();
  const double run_s = std::chrono::duration<double>(t3 - t2).count();
  const double cycles_per_sec = measured_cycles / run_s;
  const double allocs_per_cycle =
      static_cast<double>(allocs) / measured_cycles;

  std::printf("nodes                 %d\n", topo.num_nodes());
  std::printf("shards                %d\n", opts.knobs.shards);
  std::printf("pipeline depth        %d\n", opts.knobs.pipeline_depth);
  std::printf("pairs                 %zu\n", exec.pairs().size());
  std::printf("topology build        %.2f s\n", topo_s);
  std::printf("initiation            %.2f s\n", init_s);
  std::printf("measured cycles       %d (after %d warm-up)\n",
              measured_cycles, warmup_cycles);
  std::printf("cycle throughput      %.1f cycles/s (%.2f ms/cycle)\n",
              cycles_per_sec, 1e3 * run_s / measured_cycles);
  std::printf("traffic               %.1f MB over the measured block\n",
              bytes / 1e6);
  std::printf("heap allocations      %llu total, %.3f per cycle\n",
              static_cast<unsigned long long>(allocs), allocs_per_cycle);
  std::printf("results delivered     %llu\n",
              static_cast<unsigned long long>(exec.results()));

  benchutil::JsonReport report("BENCH_mesh_100k.json");
  report.Add("mesh_100k", "nodes", topo.num_nodes());
  report.Add("mesh_100k", "shards", opts.knobs.shards);
  report.Add("mesh_100k", "pipeline_depth", opts.knobs.pipeline_depth);
  report.Add("mesh_100k", "topology_seconds", topo_s);
  report.Add("mesh_100k", "init_seconds", init_s);
  report.Add("mesh_100k", "cycles_per_sec", cycles_per_sec);
  report.Add("mesh_100k", "ms_per_cycle", 1e3 * run_s / measured_cycles);
  report.Add("mesh_100k", "bytes", static_cast<double>(bytes));
  report.Add("mesh_100k", "allocs_per_cycle", allocs_per_cycle);
  report.Write();

  // Deterministic subset for the CI shard-determinism gate (the console
  // output above contains timing and cannot be diffed byte for byte).
  benchutil::DeterminismLog det;
  if (det.enabled()) {
    const auto& stats = exec.network().stats();
    det.Add("nodes", topo.num_nodes());
    det.Add("results", exec.results());
    det.Add("measured_bytes", bytes);
    det.Add("total_bytes", stats.TotalBytesSent());
    det.Add("total_messages", stats.TotalMessagesSent());
    det.Add("base_bytes", stats.BaseStationBytes());
    det.Add("traffic_fingerprint", benchutil::TrafficFingerprint(stats));
    auto rs = exec.Stats();
    det.AddDoubleBits("avg_result_delay", rs.avg_result_delay_cycles);
    det.AddDoubleBits("max_result_delay", rs.max_result_delay_cycles);
    if (!det.Write()) return 1;
  }

  // Hard steady-state audit: the measured block allocating at all is a
  // regression in the data plane or the sample kernel.
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations in the measured block "
                 "(expected 0)\n",
                 static_cast<unsigned long long>(allocs));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) { return aspen::Main(argc, argv); }
