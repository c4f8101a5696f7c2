// Micro-benchmarks (google-benchmark): throughput of the substrate
// primitives — simulator stepping, multi-tree exploration, expression
// evaluation, cost-model placement, topology generation. These bound how
// large an experiment the harness can drive.
//
// Before/after record for the sim-kernel + contiguous NodeState refactor
// (100-node Query 1, Innet-cmg, RelWithDebInfo, one core):
//
//   BM_FullExperimentCycle   map registries:      18778 ns/cycle (54.5k/s)
//                            NodeState table:     12934 ns/cycle (79.0k/s)
//   BM_NetworkStepWithTraffic                      9234 ns -> 8274 ns
//
// The per-cycle hot path (state lookup + pair dispatch) went from four
// map-of-pair lookups per producer to direct NodeId indexing plus small
// sorted-vector scans, a ~1.45x cycle-throughput improvement. RunAveraged
// additionally distributes repetitions over a thread pool
// (BM_RunAveraged/threads below; speedup tracks available cores).
//
// Before/after record for the Network::Step packet-grouping rework (same
// setup): the per-Step heap-allocated std::map<Key, vector<size_t>> was
// replaced by a reused sorted (key, index) scratch vector, preserving the
// map's iteration order bit for bit:
//
//   BM_NetworkStepWithTraffic  map grouping:       7180 ns
//                              sorted scratch:     4480 ns  (~1.6x)
//   BM_FullExperimentCycle                        12515 ns -> 12324 ns
//   BM_SharedMediumCycle       unchanged within noise (~56 us)
//
// Before/after record for the zero-allocation data plane (interned routes,
// pooled payloads/frames, POD message envelope; TrafficStats byte-identical,
// same RNG stream — verified against golden bench outputs). RelWithDebInfo,
// one core, --benchmark_min_time=1:
//
//   BM_FullExperimentCycle     shared_ptr+vectors: 11649 ns ( 87.0k cyc/s)
//                              zero-alloc plane:    7277 ns (139.0k cyc/s)  1.60x
//   BM_SharedMediumCycle                          55335 ns -> 38705 ns     1.43x
//   BM_NetworkStepWithTraffic                      3958 ns ->  3433 ns     1.15x
//   allocs per steady-state cycle: 0 after warm-up (asserted by
//   tests/allocation_test.cc; tracked here as allocs_per_cycle)
//
// bench_mesh_10k (10,000-node grid, Innet-cm, 500 pairs, 100 cycles):
//   before: 377 cycles/s, 4935 heap allocations per cycle
//   after:  482 cycles/s,  0.07 heap allocations per cycle
// Identical traffic (23.8 MB) and results (46880) on both sides.
//
// Before/after record for the grid-indexed topology generator (adjacency
// and Gabriel planarization answered from a uniform cell index instead of
// the all-pairs scans; neighbor lists byte-identical, same seeds):
//
//   BM_TopologyGeneration/100/70   18.5 ms ->  1.58 ms
//   BM_TopologyGeneration/200/70   92.7 ms ->  5.1  ms   (~18x)
//
// The index turned generation near-linear in n, so the suite now also
// tracks n=1000 at degree 7.0 and n=10000 at degree 13.0 — sizes the
// quadratic scans made impractical to benchmark per-run.
//
// Record for the pipelined cross-cycle scheduler (pipeline_depth knob:
// future cycles' pure sample stages overlap the current transmit).
// BM_SampleStage isolates the overlapped work (RelWithDebInfo, one core,
// --benchmark_min_time=1):
//
//   BM_SampleStage             420 ns/cycle, 0 allocs (100-node Query 1)
//   BM_FullExperimentCycle    8612 ns/cycle  -> the stage is ~5% of a
//                             100-node cycle; the fraction grows with node
//                             count (10k-node grid: sampling 500 pairs +
//                             filter evaluation per cycle)
//   bench_mesh_10k, 1 core:   ~450 cyc/s (p1) vs ~460 cyc/s (s1 p2) —
//                             within noise, as expected; s4 p2 drops to
//                             ~313 cyc/s (oversubscribed). Overlap needs a
//                             second core to pay off; see the CI multi-core
//                             matrix in BENCH_mesh_10k.json
//                             (mesh_10k_s<S>_p<P> entries).
//
// Before/after record for the PassFilters override path (per-node filter
// table): the inner loop resolved ParamsAt (optional probe) + FilterFor
// (linear cache scan) per sample; WarmFilterCache now tabulates one
// {mask_s, mask_t, domain} row per node — valid at every pre-switch cycle —
// and both paths accumulate verdicts block-wise into word-local registers
// (one store per 64 ids). Bit-identical (workload_test
// BatchSampleAndFiltersMatchScalarBitForBit). Release, one core,
// 10k-node grid, overrides on every 4th node, --benchmark_min_time=1:
//
//   BM_PassFiltersOverrides   per-sample resolve: 234352 ns ( 43.3M ids/s)
//                             node filter table:   47552 ns (214.7M ids/s)  4.9x
//
// Before/after record for the subtree-interval exact index: per-node
// ExactSummary clones of every child's subtree set (n x depth values per
// tree, a virtual binary search per descend) were replaced by one pre-order
// tour per tree plus one by-value array of tour positions, so a descend
// probes only the sought value's positions. Decisions, paths and charged
// bytes identical (multi_tree_test MultiTreeExactIndexTest.*).
// RelWithDebInfo, 4-vCPU x86-64 VM, 100x100 grid, unique keys:
//
//   BM_MultiTreeExplorationExact/1   6496 ns ->  2014 ns   3.2x
//   BM_MultiTreeExplorationExact/3  34476 ns ->  7892 ns   4.4x
//   BM_ExactIndexBuild (3 trees)    40.1 ms  ->  2.10 ms  19x
//   bench_mesh_100k initiation      5.04 s   ->  0.69 s    (shards 1)

#include <atomic>
#include <cstdlib>
#include <new>

#include <benchmark/benchmark.h>

#include "common/phase.h"
#include "bench/bench_util.h"
#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/network.h"
#include "net/topology.h"
#include "opt/cost_model.h"
#include "query/analyzer.h"
#include "routing/multi_tree.h"
#include "workload/workload.h"

// Global allocation counter (bench/alloc_audit.h): the zero-allocation
// data plane makes allocs/cycle a tracked perf metric (BENCH_micro.json).
#include "bench/alloc_audit.h"

namespace aspen {
namespace {

const net::Topology& BenchTopology() {
  static const net::Topology topo = *net::Topology::Random(100, 7.0, 42);
  return topo;
}

void BM_NetworkStepWithTraffic(benchmark::State& state) {
  const net::Topology& topo = BenchTopology();
  routing::RoutingTree tree = routing::RoutingTree::Build(topo, 0);
  net::Network net(&topo, {});
  net.set_parent_resolver(&tree);
  // The bench loop is single-threaded: one long sequential phase.
  common::SequentialPhaseScope seq_phase;
  for (auto _ : state) {
    for (net::NodeId u = 1; u < topo.num_nodes(); u += 4) {
      net::Message m;
      m.kind = net::MessageKind::kData;
      m.mode = net::RoutingMode::kTreeToRoot;
      m.origin = u;
      m.dest = 0;
      m.size_bytes = 8;
      benchmark::DoNotOptimize(net.Submit(std::move(m)));
    }
    net.StepUntilQuiet();
  }
  state.SetItemsProcessed(state.iterations() * (topo.num_nodes() / 4));
}
BENCHMARK(BM_NetworkStepWithTraffic);

void BM_MultiTreeExploration(benchmark::State& state) {
  const net::Topology& topo = BenchTopology();
  routing::MultiTreeOptions opts;
  opts.num_trees = static_cast<int>(state.range(0));
  routing::MultiTree multi(&topo, opts);
  routing::IndexedAttribute attr;
  attr.name = "a";
  attr.value_fn = [](net::NodeId id) { return (id * 7) % 12; };
  int idx = *multi.IndexAttribute(attr);
  int source = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(multi.FindMatches(source, idx, 3));
    source = (source + 13) % topo.num_nodes();
  }
}
BENCHMARK(BM_MultiTreeExploration)->Arg(1)->Arg(3);

/// The 10k-node mesh grid (bench_mesh_10k's spacing) with one unique key
/// per node: the shape exact summaries serve at mesh scale.
const net::Topology& MeshTopology() {
  static const net::Topology topo = *net::Topology::Grid(100, 100, 2560.0);
  return topo;
}

routing::IndexedAttribute UniqueExactKey() {
  routing::IndexedAttribute attr;
  attr.name = "unique";
  attr.summary_type = routing::SummaryType::kExact;
  attr.value_fn = [](net::NodeId id) { return id; };
  return attr;
}

void BM_MultiTreeExplorationExact(benchmark::State& state) {
  // One search per iteration for a single far target: exact summaries prune
  // every subtree off the path, so the cost is the ascent plus one descent.
  const net::Topology& topo = MeshTopology();
  routing::MultiTreeOptions opts;
  opts.num_trees = static_cast<int>(state.range(0));
  routing::MultiTree multi(&topo, opts);
  const int idx = *multi.IndexAttribute(UniqueExactKey());
  const int n = topo.num_nodes();
  int source = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        multi.FindMatches(source, idx, (source + n / 2) % n));
    source = (source + 97) % n;
  }
}
BENCHMARK(BM_MultiTreeExplorationExact)->Arg(1)->Arg(3);

void BM_ExactIndexBuild(benchmark::State& state) {
  // IndexAttribute alone (trees built untimed): the subtree-interval index
  // for three trees over the 10k grid, aggregation bytes included.
  const net::Topology& topo = MeshTopology();
  const routing::IndexedAttribute attr = UniqueExactKey();
  for (auto _ : state) {
    state.PauseTiming();
    routing::MultiTree multi(&topo, routing::MultiTreeOptions{});
    state.ResumeTiming();
    benchmark::DoNotOptimize(multi.IndexAttribute(attr));
  }
  state.SetItemsProcessed(state.iterations() * topo.num_nodes());
}
BENCHMARK(BM_ExactIndexBuild)->Unit(benchmark::kMillisecond);

void BM_ExprEval(benchmark::State& state) {
  using namespace query;
  auto e = Expr::And(
      Expr::Eq(Expr::Attr(Side::kS, kAttrX),
               Expr::Add(Expr::Attr(Side::kT, kAttrY), Expr::Const(5))),
      Expr::Eq(Expr::Mod(Expr::Hash(Expr::Attr(Side::kS, kAttrU)),
                         Expr::Const(2)),
               Expr::Const(0)));
  Tuple s = Schema::Sensor().MakeTuple();
  Tuple t = Schema::Sensor().MakeTuple();
  s[kAttrX] = 9;
  t[kAttrY] = 4;
  for (auto _ : state) {
    s[kAttrU] = (s[kAttrU] + 1) & 0x7;
    benchmark::DoNotOptimize(e->EvalBool(&s, &t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExprEval);

void BM_PlaceOnPath(benchmark::State& state) {
  std::vector<net::NodeId> path(state.range(0));
  for (size_t i = 0; i < path.size(); ++i) path[i] = static_cast<int>(i);
  opt::PairCostInputs cost{0.5, 0.5, 0.2, 3};
  auto depth = [](net::NodeId id) { return static_cast<int>(id % 11); };
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::PlaceOnPath(cost, path, depth));
  }
}
BENCHMARK(BM_PlaceOnPath)->Arg(8)->Arg(32);

void BM_TopologyGeneration(benchmark::State& state) {
  uint64_t seed = 1;
  // range(1) is the target average degree scaled by 10 (benchmark args are
  // integers): 70 -> 7.0 neighbors, 130 -> 13.0.
  const double degree = static_cast<double>(state.range(1)) / 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Topology::Random(
        static_cast<int>(state.range(0)), degree, seed++));
  }
}
BENCHMARK(BM_TopologyGeneration)
    ->Args({100, 70})
    ->Args({200, 70})
    ->Args({1000, 70})
    ->Args({10000, 130});

void BM_LinkLossNoOverrides(benchmark::State& state) {
  // The common case: no per-link overrides installed. LinkLoss must answer
  // from one branch — no unordered_map probe per transmission.
  const net::Topology& topo = BenchTopology();
  net::NetworkOptions opts;
  opts.loss_prob = 0.1;
  net::Network net(&topo, opts);
  const int n = topo.num_nodes();
  double acc = 0;
  for (auto _ : state) {
    for (net::NodeId u = 0; u < n; ++u) acc += net.LinkLoss(u, (u + 1) % n);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkLossNoOverrides);

void BM_LinkLossWithOverrides(benchmark::State& state) {
  // With any override present every lookup pays the hash probe (the
  // scenario-dynamics case); kept as the comparison point.
  const net::Topology& topo = BenchTopology();
  net::NetworkOptions opts;
  opts.loss_prob = 0.1;
  net::Network net(&topo, opts);
  {
    common::SequentialPhaseScope seq_phase;
    net.SetLinkLoss(0, 1, 0.9);
  }
  const int n = topo.num_nodes();
  double acc = 0;
  for (auto _ : state) {
    for (net::NodeId u = 0; u < n; ++u) acc += net.LinkLoss(u, (u + 1) % n);
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LinkLossWithOverrides);

void BM_FullExperimentCycle(benchmark::State& state) {
  const net::Topology& topo = BenchTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
  if (!exec.Initiate().ok()) state.SkipWithError("initiate failed");
  const uint64_t allocs_before = allocaudit::Count();
  const uint64_t bytes_before = exec.network().stats().TotalBytesSent();
  for (auto _ : state) {
    if (!medium.RunCycles(1).ok()) state.SkipWithError("run failed");
  }
  const double cycles = static_cast<double>(state.iterations());
  state.counters["allocs_per_cycle"] = benchmark::Counter(
      static_cast<double>(allocaudit::Count() - allocs_before) / cycles);
  state.counters["bytes_per_cycle"] = benchmark::Counter(
      static_cast<double>(exec.network().stats().TotalBytesSent() -
                          bytes_before) /
      cycles);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullExperimentCycle);

void BM_SampleStage(benchmark::State& state) {
  // The pure per-cycle sample stage in isolation: workload sampling +
  // filter evaluation into the staged slab, no commit/submission. This is
  // exactly the work the pipelined scheduler (pipeline_depth > 1) overlaps
  // with the previous cycle's transmit, so ns/op here bounds the overlap's
  // best-case saving per cycle.
  const net::Topology& topo = BenchTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
  if (!exec.Initiate().ok()) state.SkipWithError("initiate failed");
  sim::ShardPhaseParticipant& sp = exec;
  const net::NodeId n = topo.num_nodes();
  sp.ConfigureSampleSlots(1);
  sp.OnSampleBegin(0);
  {
    // First pass sizes the producer cache and slab; keep it out of the
    // timed loop (it happens once per run, at warm-up).
    common::PipelineStageScope stage;
    sp.OnSampleStage(0, 0, 0, 0, n);
  }
  const uint64_t allocs_before = allocaudit::Count();
  int cycle = 1;
  for (auto _ : state) {
    common::PipelineStageScope stage;
    sp.OnSampleStage(cycle++, 0, 0, 0, n);
  }
  state.counters["allocs_per_cycle"] = benchmark::Counter(
      static_cast<double>(allocaudit::Count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleStage);

void BM_PassFiltersOverrides(benchmark::State& state) {
  // Batched filter evaluation with per-node parameter overrides installed —
  // the path a heterogeneous deployment (Section 6 drift scenarios) runs
  // every sample cycle. Every 4th node is overridden so the uniform-params
  // fast path is off for cycles below the switch.
  auto topo = *net::Topology::Grid(100, 100, 2560.0);
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
  for (net::NodeId id = 0; id < topo.num_nodes(); id += 4) {
    wl.SetNodeParams(id, {0.25, 0.75, 0.1});
  }
  wl.WarmFilterCache();
  const int n = topo.num_nodes();
  std::vector<net::NodeId> ids(n);
  for (int i = 0; i < n; ++i) ids[i] = i;
  std::vector<uint64_t> s_bits((n + 63) / 64), t_bits((n + 63) / 64);
  const uint64_t allocs_before = allocaudit::Count();
  int cycle = 0;
  for (auto _ : state) {
    wl.PassFilters(ids.data(), n, cycle++, s_bits.data(), t_bits.data());
    benchmark::DoNotOptimize(s_bits.data());
    benchmark::DoNotOptimize(t_bits.data());
  }
  state.counters["allocs_per_call"] = benchmark::Counter(
      static_cast<double>(allocaudit::Count() - allocs_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PassFiltersOverrides);

void BM_SharedMediumCycle(benchmark::State& state) {
  // Two concurrent queries interleaved on one medium, driven by the shared
  // cycle scheduler: the multi-query hot path.
  const net::Topology& topo = BenchTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = *workload::Workload::MakeQuery1(&topo, sel, 3, 7);
  auto q2 = *workload::Workload::MakeQuery2(&topo, sel, 3, 9);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  net::NetworkOptions shared_opts;
  shared_opts.enable_merging = true;
  join::SharedMedium medium(&topo, shared_opts);
  if (!medium.TryAddQuery(&q1, opts).ok() ||
      !medium.TryAddQuery(&q2, opts).ok()) {
    state.SkipWithError("admission failed");
  }
  if (!medium.InitiateAll().ok()) state.SkipWithError("initiate failed");
  for (auto _ : state) {
    if (!medium.RunCycles(1).ok()) state.SkipWithError("run failed");
  }
  state.SetItemsProcessed(state.iterations() * 2);  // query-cycles
}
BENCHMARK(BM_SharedMediumCycle);

void BM_RunAveraged(benchmark::State& state) {
  // 9-seed repetition batch (the paper's methodology) on the thread pool.
  const net::Topology& topo = BenchTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  core::WorkloadFactory factory = [&](uint64_t seed) {
    return workload::Workload::MakeQuery1(&topo, sel, 3, seed);
  };
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  opts.assumed = sel;
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto agg = core::RunAveraged(factory, opts, /*sampling_cycles=*/25,
                                 /*runs=*/9, /*seed0=*/1, threads);
    if (!agg.ok()) state.SkipWithError("run failed");
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(state.iterations() * 9);
}
BENCHMARK(BM_RunAveraged)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Console output plus a flat BENCH_micro.json perf-trajectory record. The
/// record is always in nanoseconds, whatever Unit() a benchmark declares.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(benchutil::JsonReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      const std::string name = r.benchmark_name();
      report_->Add(name, "ns_per_op",
                   r.GetAdjustedRealTime() * 1e9 /
                       benchmark::GetTimeUnitMultiplier(r.time_unit));
      for (const auto& [key, counter] : r.counters) {
        report_->Add(name, key, counter.value);
      }
    }
  }

 private:
  benchutil::JsonReport* report_;
};

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) {
  aspen::allocaudit::SetCounting(true);  // allocs/cycle is a tracked metric
  // `--smoke` (CI): run every benchmark briefly — catches bench bit-rot and
  // hot-path regressions without a full timing pass.
  const bool smoke = aspen::benchutil::ConsumeSmokeFlag(&argc, argv);
  std::vector<char*> args(argv, argv + argc);
  static char min_time_flag[] = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time_flag);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  aspen::benchutil::JsonReport report("BENCH_micro.json");
  aspen::JsonFileReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  report.Write();
  return 0;
}
