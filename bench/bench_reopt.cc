// Continuous re-optimization vs frozen placements under a mid-run workload
// shift (the paper's Section 6 trigger closed at runtime).
//
// The producers start at sigma_s:sigma_t = 1/10:1 and swap to 1:1/10
// mid-run — the placements chosen at initiation become exactly wrong. The
// frozen run (reopt_interval=0, the historical behavior) keeps paying the
// misplaced routing forever; the re-optimizing run detects the divergence
// past the paper's 33% threshold, replans, and migrates each pair's window
// state through the three-phase protocol. The headline gate: the settled
// tail after the shift must cost the re-optimizing run strictly less data
// traffic per cycle than the frozen run, and the migrated steady state must
// stay zero-allocation (migration cycles themselves are exempt — they are
// paid once, inside the adaptation window).
//
// Both runs deliver identical result counts: migration moves state, never
// drops or duplicates it.
//
// Output: console summary + BENCH_reopt.json (tail bytes/cycle for both
// configurations, migration counts) for the perf trajectory, plus the
// ASPEN_STATS_OUT determinism digest the CI shard/pipeline gate diffs.
//
// `--smoke` shrinks the run for CI (same topology, shorter phases).

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

constexpr workload::SelectivityParams kBefore{0.1, 1.0, 0.2};
constexpr workload::SelectivityParams kAfter{1.0, 0.1, 0.2};

struct Phases {
  int pre;     // cycles before the shift (shift fires at cycle `pre`)
  int adapt;   // adaptation window: divergence, replan, migration
  int tail;    // measured settled block after adaptation
};

struct RunOutcome {
  uint64_t tail_bytes = 0;
  uint64_t tail_allocs = 0;
  uint64_t exempt_allocs = 0;
  int exempt_cycles = 0;
  uint64_t total_bytes = 0;
  uint64_t results = 0;
  join::RunStats stats;
  uint64_t tail_planned = 0;
  uint64_t fingerprint = 0;
};

RunOutcome RunOne(const net::Topology& topo, const Phases& ph,
                  int reopt_interval) {
  auto wl =
      benchutil::OrDie(workload::Workload::MakeQuery1(&topo, kBefore, 3, 7));
  wl.SetGlobalSwitch(ph.pre, kAfter);

  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::None();  // ungrouped: planned protocol
  opts.assumed = kBefore;
  opts.seed = 42;
  opts.knobs = benchutil::KnobsFromEnv();
  opts.knobs.reopt_interval = reopt_interval;

  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
  Status st = exec.Initiate();
  if (st.ok()) st = medium.RunCycles(ph.pre + ph.adapt);
  if (!st.ok()) {
    std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
    std::abort();
  }

  RunOutcome out;
  const uint64_t planned_before = exec.Stats().planned_migrations;
  const uint64_t bytes_before = exec.network().stats().TotalBytesSent();
  // Per-cycle audit: steady-state cycles must not allocate, but the
  // re-optimization loop never formally quiesces — estimator noise can
  // cross the 33%% trigger again long after the shift — so cycles inside a
  // three-phase migration (announce, transfer, completion) are exempt.
  // Those pay interned-route and protocol bookkeeping once, by design.
  // planned() ticks at the announce cycle — the first of the three
  // protocol cycles — so a 3-cycle exemption window starting there covers
  // announce, transfer and completion. migrations() additionally catches
  // instant relocations (failover, grouped MPO moves).
  uint64_t last_planned = exec.reopt().planned();
  uint64_t last_migr = exec.migrations();
  int exempt = 0;
  for (int c = 0; c < ph.tail; ++c) {
    const uint64_t a0 = allocaudit::Count();
    st = medium.RunCycles(1);
    if (!st.ok()) {
      std::fprintf(stderr, "fatal: %s\n", st.ToString().c_str());
      std::abort();
    }
    const uint64_t d = allocaudit::Count() - a0;
    if (exec.reopt().planned() != last_planned ||
        exec.migrations() != last_migr) {
      exempt = 3;  // announce + transfer + completion cycles
      last_planned = exec.reopt().planned();
      last_migr = exec.migrations();
    }
    if (exempt > 0) {
      --exempt;
      out.exempt_allocs += d;
      ++out.exempt_cycles;
    } else {
      out.tail_allocs += d;
    }
  }
  out.tail_bytes = exec.network().stats().TotalBytesSent() - bytes_before;
  out.total_bytes = exec.network().stats().TotalBytesSent();
  out.results = exec.results();
  out.stats = exec.Stats();
  out.tail_planned = out.stats.planned_migrations - planned_before;
  out.fingerprint = benchutil::TrafficFingerprint(exec.network().stats());
  return out;
}

int Main(int argc, char** argv) {
  allocaudit::SetCounting(true);
  const bool smoke = benchutil::ConsumeSmokeFlag(&argc, argv);
  Phases ph;
  ph.pre = smoke ? 30 : 60;
  ph.adapt = smoke ? 60 : 120;
  ph.tail = benchutil::CyclesFromEnv(smoke ? 40 : 200);
  const int interval = []() {
    int v = benchutil::ReoptFromEnv();
    return v > 0 ? v : 10;
  }();

  benchutil::PrintHeader(
      "bench_reopt",
      "continuous re-optimization vs frozen placements under a rate shift");

  auto topo = benchutil::PaperTopology();
  RunOutcome frozen = RunOne(topo, ph, /*reopt_interval=*/0);
  RunOutcome reopt = RunOne(topo, ph, interval);

  const common::RunKnobs knobs = benchutil::KnobsFromEnv();
  const double frozen_per_cycle =
      static_cast<double>(frozen.tail_bytes) / ph.tail;
  const double reopt_per_cycle =
      static_cast<double>(reopt.tail_bytes) / ph.tail;

  std::printf("nodes                 %d\n", topo.num_nodes());
  std::printf("shards                %d\n", knobs.shards);
  std::printf("pipeline depth        %d\n", knobs.pipeline_depth);
  std::printf("reopt interval        %d cycles (33%% divergence trigger)\n",
              interval);
  std::printf("shift                 cycle %d: sigma %.2f:%.2f -> %.2f:%.2f\n",
              ph.pre, kBefore.sigma_s, kBefore.sigma_t, kAfter.sigma_s,
              kAfter.sigma_t);
  std::printf("measured tail         %d cycles after a %d-cycle adaptation "
              "window\n",
              ph.tail, ph.adapt);
  std::printf("frozen tail traffic   %.1f bytes/cycle\n", frozen_per_cycle);
  std::printf("reopt tail traffic    %.1f bytes/cycle (%.1f%% of frozen)\n",
              reopt_per_cycle, 100.0 * reopt_per_cycle / frozen_per_cycle);
  std::printf("reopt passes          %llu\n",
              static_cast<unsigned long long>(reopt.stats.reopt_passes));
  std::printf("planned migrations    %llu\n",
              static_cast<unsigned long long>(
                  reopt.stats.planned_migrations));
  std::printf("results               frozen %llu, reopt %llu\n",
              static_cast<unsigned long long>(frozen.results),
              static_cast<unsigned long long>(reopt.results));
  std::printf("tail heap allocations frozen %llu, reopt %llu\n",
              static_cast<unsigned long long>(frozen.tail_allocs),
              static_cast<unsigned long long>(reopt.tail_allocs));
  std::printf("tail planned migr.    %llu (%d exempt cycles, %llu exempt "
              "allocs)\n",
              static_cast<unsigned long long>(reopt.tail_planned),
              reopt.exempt_cycles,
              static_cast<unsigned long long>(reopt.exempt_allocs));

  benchutil::JsonReport report("BENCH_reopt.json", /*merge=*/true);
  char config[64];
  std::snprintf(config, sizeof(config), "reopt_s%d_p%d", knobs.shards,
                knobs.pipeline_depth);
  for (const char* entry : {"reopt", static_cast<const char*>(config)}) {
    report.Add(entry, "shards", knobs.shards);
    report.Add(entry, "pipeline_depth", knobs.pipeline_depth);
    report.Add(entry, "frozen_tail_bytes_per_cycle", frozen_per_cycle);
    report.Add(entry, "reopt_tail_bytes_per_cycle", reopt_per_cycle);
    report.Add(entry, "tail_ratio", reopt_per_cycle / frozen_per_cycle);
    report.Add(entry, "reopt_passes",
               static_cast<double>(reopt.stats.reopt_passes));
    report.Add(entry, "planned_migrations",
               static_cast<double>(reopt.stats.planned_migrations));
    report.Add(entry, "reopt_tail_allocs",
               static_cast<double>(reopt.tail_allocs));
  }
  report.Write();

  // Deterministic subset for the CI shard/pipeline gate: every quantity
  // here must be byte-identical across ASPEN_SHARDS and ASPEN_PIPELINE.
  benchutil::DeterminismLog det;
  if (det.enabled()) {
    det.Add("frozen_results", frozen.results);
    det.Add("frozen_total_bytes", frozen.total_bytes);
    det.Add("frozen_fingerprint", frozen.fingerprint);
    det.Add("reopt_results", reopt.results);
    det.Add("reopt_total_bytes", reopt.total_bytes);
    det.Add("reopt_tail_bytes", reopt.tail_bytes);
    det.Add("reopt_fingerprint", reopt.fingerprint);
    det.Add("reopt_passes", reopt.stats.reopt_passes);
    det.Add("planned_migrations", reopt.stats.planned_migrations);
    det.Add("migrations", reopt.stats.migrations);
    if (!det.Write()) return 1;
  }

  // ---- hard gates -----------------------------------------------------------
  int rc = 0;
  if (reopt.stats.reopt_passes == 0 || reopt.stats.planned_migrations == 0) {
    std::fprintf(stderr,
                 "FAIL: the shift did not drive any planned migration "
                 "(passes=%llu, planned=%llu)\n",
                 static_cast<unsigned long long>(reopt.stats.reopt_passes),
                 static_cast<unsigned long long>(
                     reopt.stats.planned_migrations));
    rc = 1;
  }
  if (reopt_per_cycle >= frozen_per_cycle) {
    std::fprintf(stderr,
                 "FAIL: re-optimized tail (%.1f B/cycle) does not beat the "
                 "frozen tail (%.1f B/cycle)\n",
                 reopt_per_cycle, frozen_per_cycle);
    rc = 1;
  }
  if (reopt.results != frozen.results) {
    std::fprintf(stderr,
                 "FAIL: migration changed the result count (frozen %llu, "
                 "reopt %llu)\n",
                 static_cast<unsigned long long>(frozen.results),
                 static_cast<unsigned long long>(reopt.results));
    rc = 1;
  }
  // Post-migration steady state is held to the same zero-allocation bar as
  // every other settled data plane; only the migration cycles themselves
  // (inside the adaptation window, not measured here) may allocate.
  if (reopt.tail_allocs != 0 || frozen.tail_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: heap allocations in the settled tail (frozen %llu, "
                 "reopt %llu; expected 0)\n",
                 static_cast<unsigned long long>(frozen.tail_allocs),
                 static_cast<unsigned long long>(reopt.tail_allocs));
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace aspen

int main(int argc, char** argv) { return aspen::Main(argc, argv); }
