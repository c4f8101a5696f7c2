// Cross-query work sharing at service scale (DESIGN.md "Cross-query work
// sharing"): a 10,000-node mesh hosts 64 co-resident queries drawn from 16
// templates (4 identical tenants each — 75% of the population duplicates
// another query's placed pairs), run once per tree mode on its own medium:
//
//   kPerSource  every query evaluates its own placements and builds its
//               own distribution trees — the unshared reference.
//   kShared     identical placements are claimed once (one evaluation,
//               fanned out to all subscribers) and overlapping destination
//               sets resolve to one interned Steiner tree.
//
// Acceptance gates (the bench exits non-zero on any failure):
//   - per-query result counts under kShared are identical to kPerSource —
//     sharing changes traffic, never answers;
//   - the settled-tail traffic rate under kShared is >= 30% below the
//     per-source reference;
//   - the shared-mode steady tail allocates nothing (same exemption as
//     bench_service_churn: one slab step per shard);
//   - a fully subscribed admission (every pair rides a co-resident owner's
//     placement) costs what it touches: its mean heap growth over Initiate
//     stays within 8 B per mesh node (twice its 4 B slot table) plus
//     4 KiB per pair;
//   - with ASPEN_STATS_OUT set, a deterministic digest covering both modes
//     for the shards {1,4} x pipeline-depth {1,2,3} determinism matrix.
//
// `--smoke` shrinks the mesh and population for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_audit.h"
#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace aspen {
namespace {

struct ModeRun {
  std::vector<uint64_t> results;  ///< per-query, admission order
  uint64_t total_bytes = 0;
  double tail_bytes_per_cycle = 0;
  uint64_t tail_allocs = 0;
  uint64_t traffic_fingerprint = 0;
  double settle_s = 0;
  double tail_s = 0;
  /// Heap growth over Initiate, summed over the admissions whose every
  /// pair subscribed to a co-resident owner, and their count.
  int64_t subscribed_admit_heap = 0;
  int subscribed_admits = 0;
};

ModeRun RunMode(const net::Topology& topo,
                const std::vector<workload::Workload>& templates,
                common::TreeMode mode, int copies, int settle_cycles,
                int tail_cycles, int shards, int pipeline) {
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  join::ExecutorOptions eopts;
  eopts.algorithm = join::Algorithm::kInnet;
  eopts.features = join::InnetFeatures::Cm();
  eopts.assumed = sel;
  eopts.mesh_mode = true;
  eopts.knobs.tree_mode = mode;
  join::MediumOptions mopts;
  mopts.knobs.shards = shards;
  mopts.knobs.pipeline_depth = pipeline;
  mopts.knobs.tree_mode = mode;

  join::SharedMedium medium(&topo, {}, mopts);
  std::vector<join::JoinExecutor*> execs;
  // Admission order interleaves templates (t0 c0, t1 c0, ..., t0 c1, ...)
  // so each template's first tenant owns and later copies subscribe.
  for (int c = 0; c < copies; ++c) {
    for (const auto& wl : templates) {
      execs.push_back(benchutil::OrDie(medium.TryAddQuery(&wl, eopts)));
    }
  }
  // Initiate in admission order, as InitiateAll does, reading heap in use
  // around each call.
  ModeRun out;
  for (join::JoinExecutor* e : execs) {
    const size_t before = allocaudit::HeapInUseBytes();
    benchutil::OrDie(e->Initiate());
    const size_t after = allocaudit::HeapInUseBytes();
    const auto& pls = e->placements();
    const bool fully_subscribed =
        !pls.empty() &&
        std::all_of(pls.begin(), pls.end(),
                    [](const join::JoinExecutor::PairPlacement& pl) {
                      return pl.shared_owner >= 0;
                    });
    if (fully_subscribed) {
      out.subscribed_admit_heap +=
          static_cast<int64_t>(after) - static_cast<int64_t>(before);
      ++out.subscribed_admits;
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  benchutil::OrDie(medium.RunCycles(settle_cycles));
  auto t1 = std::chrono::steady_clock::now();

  const uint64_t bytes_before_tail = medium.stats().TotalBytesSent();
  allocaudit::ResetCount();
  allocaudit::SetCounting(true);
  auto t2 = std::chrono::steady_clock::now();
  benchutil::OrDie(medium.RunCycles(tail_cycles));
  auto t3 = std::chrono::steady_clock::now();
  allocaudit::SetCounting(false);

  out.tail_allocs = allocaudit::Count();
  out.total_bytes = medium.stats().TotalBytesSent();
  out.tail_bytes_per_cycle =
      static_cast<double>(out.total_bytes - bytes_before_tail) / tail_cycles;
  out.traffic_fingerprint = benchutil::TrafficFingerprint(medium.stats());
  out.settle_s = std::chrono::duration<double>(t1 - t0).count();
  out.tail_s = std::chrono::duration<double>(t3 - t2).count();
  out.results.reserve(execs.size());
  for (const join::JoinExecutor* e : execs) out.results.push_back(e->results());
  if (mode == common::TreeMode::kShared &&
      medium.num_shared_placements() == 0) {
    std::fprintf(stderr, "GATE FAIL: shared mode claimed no placements\n");
    std::exit(1);
  }
  return out;
}

int Main(int argc, char** argv) {
  const bool smoke = benchutil::ConsumeSmokeFlag(&argc, argv);

  // Full run: 10k nodes, 16 templates x 4 copies = 64 co-resident queries.
  // The settle phase covers several 25-cycle re-estimation bursts so the
  // payload pools reach their in-flight peak before the audited tail.
  const int grid_side = smoke ? 40 : 100;
  const int num_templates = smoke ? 4 : 16;
  const int copies = smoke ? 2 : 4;
  const int num_pairs = smoke ? 20 : 60;
  const int settle_cycles = smoke ? 10 : 110;
  const int tail_cycles = benchutil::CyclesFromEnv(smoke ? 10 : 60);
  const int shards = benchutil::ShardsFromEnv();
  const int pipeline = benchutil::PipelineFromEnv();

  benchutil::PrintHeader(
      "bench_service_sharing",
      "64 co-resident queries, shared vs per-source trees and placements");

  auto topo = benchutil::OrDie(
      net::Topology::Grid(grid_side, grid_side, 25.6 * grid_side));
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  std::vector<workload::Workload> templates;
  templates.reserve(num_templates);
  for (int i = 0; i < num_templates; ++i) {
    templates.push_back(benchutil::OrDie(workload::Workload::MakeQuery0(
        &topo, sel, num_pairs, /*window=*/3, /*seed=*/100 + i)));
  }

  ModeRun per_source =
      RunMode(topo, templates, common::TreeMode::kPerSource, copies,
              settle_cycles, tail_cycles, shards, pipeline);
  ModeRun shared =
      RunMode(topo, templates, common::TreeMode::kShared, copies,
              settle_cycles, tail_cycles, shards, pipeline);

  // ---- gates ----------------------------------------------------------------
  int failures = 0;
  int result_failures = 0;
  for (size_t i = 0; i < per_source.results.size(); ++i) {
    if (shared.results[i] != per_source.results[i]) {
      std::fprintf(stderr,
                   "GATE FAIL: query %zu results diverge: shared %llu != "
                   "per-source %llu\n",
                   i, static_cast<unsigned long long>(shared.results[i]),
                   static_cast<unsigned long long>(per_source.results[i]));
      ++result_failures;
    }
  }
  failures += result_failures;
  const double reduction =
      1.0 - shared.tail_bytes_per_cycle / per_source.tail_bytes_per_cycle;
  if (reduction < 0.30) {
    std::fprintf(stderr,
                 "GATE FAIL: shared-mode tail traffic only %.1f%% below "
                 "per-source (need >= 30%%)\n",
                 100.0 * reduction);
    ++failures;
  }
  const uint64_t alloc_bound = shards > 1 ? shards : 0;
  if (shared.tail_allocs > alloc_bound) {
    std::fprintf(stderr,
                 "GATE FAIL: shared steady tail allocated (%llu allocs over "
                 "%d cycles; bound %llu)\n",
                 static_cast<unsigned long long>(shared.tail_allocs),
                 tail_cycles, static_cast<unsigned long long>(alloc_bound));
    ++failures;
  }
  // Heap per fully subscribed admission: such a query samples and sends
  // nothing, so it may keep its n-entry slot table and per-pair state, but
  // nothing sized by the mesh beyond that.
  const int64_t heap_bound =
      8 * static_cast<int64_t>(topo.num_nodes()) + 4096 * int64_t{num_pairs};
  const double subscribed_heap_mean =
      shared.subscribed_admits > 0
          ? static_cast<double>(shared.subscribed_admit_heap) /
                shared.subscribed_admits
          : 0.0;
  if (shared.subscribed_admits == 0) {
    std::fprintf(stderr,
                 "GATE FAIL: shared mode admitted no fully subscribed query\n");
    ++failures;
  } else if (subscribed_heap_mean > static_cast<double>(heap_bound)) {
    std::fprintf(stderr,
                 "GATE FAIL: a fully subscribed admission adds %.1f KiB of "
                 "heap (bound %.1f KiB: 8 B/node + 4 KiB/pair)\n",
                 subscribed_heap_mean / 1024.0, heap_bound / 1024.0);
    ++failures;
  }

  uint64_t total_results = 0;
  for (uint64_t r : shared.results) total_results += r;
  std::printf("nodes                 %d\n", topo.num_nodes());
  std::printf("queries               %zu (%d templates x %d copies)\n",
              per_source.results.size(), num_templates, copies);
  std::printf("shards / pipeline     %d / %d\n", shards, pipeline);
  std::printf("cycles                %d settle + %d tail, per mode\n",
              settle_cycles, tail_cycles);
  std::printf("results per mode      %llu (identical per query: %s)\n",
              static_cast<unsigned long long>(total_results),
              result_failures == 0 ? "yes" : "NO");
  std::printf("tail traffic          per-source %.0f B/cycle, shared %.0f "
              "B/cycle (-%.1f%%)\n",
              per_source.tail_bytes_per_cycle, shared.tail_bytes_per_cycle,
              100.0 * reduction);
  std::printf("tail allocs           per-source %llu, shared %llu\n",
              static_cast<unsigned long long>(per_source.tail_allocs),
              static_cast<unsigned long long>(shared.tail_allocs));
  std::printf("subscribed admit heap %.1f KiB mean over %d admissions "
              "(bound %.1f KiB)\n",
              subscribed_heap_mean / 1024.0, shared.subscribed_admits,
              heap_bound / 1024.0);
  std::printf("wall time             per-source %.2f s, shared %.2f s\n",
              per_source.settle_s + per_source.tail_s,
              shared.settle_s + shared.tail_s);
  std::printf("sharing gate          %s\n", failures == 0 ? "PASS" : "FAIL");

  benchutil::JsonReport report("BENCH_service_sharing.json");
  report.Add("service_sharing", "nodes", topo.num_nodes());
  report.Add("service_sharing", "queries",
             static_cast<double>(per_source.results.size()));
  report.Add("service_sharing", "shards", shards);
  report.Add("service_sharing", "pipeline_depth", pipeline);
  report.Add("service_sharing", "per_source_tail_bytes_per_cycle",
             per_source.tail_bytes_per_cycle);
  report.Add("service_sharing", "shared_tail_bytes_per_cycle",
             shared.tail_bytes_per_cycle);
  report.Add("service_sharing", "traffic_reduction_pct", 100.0 * reduction);
  report.Add("service_sharing", "shared_tail_allocs",
             static_cast<double>(shared.tail_allocs));
  report.Add("service_sharing", "total_results",
             static_cast<double>(total_results));
  report.Add("service_sharing", "subscribed_admit_heap_bytes",
             subscribed_heap_mean);
  report.Write();

  // Deterministic digest across the shards x pipeline-depth matrix: both
  // modes' per-query results and traffic fingerprints (timing excluded).
  benchutil::DeterminismLog det;
  if (det.enabled()) {
    det.Add("nodes", topo.num_nodes());
    det.Add("queries", per_source.results.size());
    det.Add("per_source_bytes", per_source.total_bytes);
    det.Add("per_source_fingerprint", per_source.traffic_fingerprint);
    det.Add("shared_bytes", shared.total_bytes);
    det.Add("shared_fingerprint", shared.traffic_fingerprint);
    for (size_t i = 0; i < shared.results.size(); ++i) {
      det.Add("q" + std::to_string(i) + "_results", shared.results[i]);
    }
    if (!det.Write()) return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) { return aspen::Main(argc, argv); }
