// Figure 14: effects of join-node failure. A single-pair query runs with
// sigma_st in {10%, 20%}; as a baseline the run proceeds unfailed, then the
// in-network join node is killed 45-55% into the run (averaged over
// offsets). The producers detect the dead node when their transmissions
// exhaust retries, fail over to the base, and forward their last w tuples
// so the window is reconstructed. Delay rises by a few cycles; traffic
// afterwards behaves like joining at the base.
//
// The failure is scripted through the scenario engine (a DynamicsSchedule
// replayed by a ScenarioDriver on the query's medium) rather than by
// splitting the run around a manual FailNode call.

#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"
#include "scenario/dynamics.h"

using namespace aspen;
using namespace aspen::benchutil;

namespace {

struct Outcome {
  double delay = 0;
  double traffic_kb = 0;
  double results = 0;
};

Outcome RunOnce(const net::Topology& topo, double sigma_st, bool fail,
                double fail_frac, uint64_t seed) {
  workload::SelectivityParams sel{1.0, 1.0, sigma_st};
  auto wl = OrDie(workload::Workload::MakeQuery0(&topo, sel, /*num_pairs=*/1,
                                                 /*window=*/1, seed));
  // Optimize with a low assumed join selectivity so the join node is placed
  // in-network (the configuration the failure experiment studies).
  workload::SelectivityParams assumed{1.0, 1.0, 0.02};
  join::ExecutorOptions opts = MakeOptions(
      {join::Algorithm::kInnet, join::InnetFeatures::None()}, assumed);
  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
  if (!exec.Initiate().ok()) std::abort();
  const int cycles = 100;
  int fail_at = static_cast<int>(cycles * fail_frac);
  // Kill the in-network join node (known after placement) mid-run.
  scenario::DynamicsSchedule schedule;
  if (fail) {
    for (const auto& pl : exec.placements()) {
      if (!pl.at_base && pl.join_node != pl.pair.s &&
          pl.join_node != pl.pair.t) {
        schedule.FailAt(fail_at, pl.join_node);
      }
    }
  }
  scenario::ScenarioDriver driver(&medium.network(), &schedule);
  medium.scheduler()->AttachFront(&driver);
  (void)medium.RunCycles(cycles);
  auto stats = exec.Stats();
  Outcome out;
  // The paper plots worst-case result delay around the failure window.
  out.delay = stats.max_result_delay_cycles;
  out.traffic_kb = stats.total_bytes / 1024.0;
  out.results = static_cast<double>(stats.results);
  return out;
}

}  // namespace

int main() {
  PrintHeader("Figure 14", "Join-node failure: delay and traffic");
  const int runs = RunsFromEnv();
  core::Table table({"sigma_st", "scenario", "max delay (cycles)",
                     "total traffic (KB)", "results"});
  for (double sigma_st : {0.10, 0.20}) {
    for (bool fail : {false, true}) {
      Outcome acc;
      int n = 0;
      for (int r = 0; r < runs; ++r) {
        // Vary the failure time 45%..55% into the run (the paper averages
        // over these offsets).
        for (double frac : {0.45, 0.50, 0.55}) {
          net::Topology topo = PaperTopology(42 + r);
          Outcome o = RunOnce(topo, sigma_st, fail, frac, 7 + r);
          acc.delay += o.delay;
          acc.traffic_kb += o.traffic_kb;
          acc.results += o.results;
          ++n;
          if (!fail) break;  // baseline has no offset dimension
        }
      }
      table.AddRow({core::Fixed(sigma_st * 100, 0) + "%",
                    fail ? "With failures" : "No failures",
                    core::Fixed(acc.delay / n, 1),
                    core::Fixed(acc.traffic_kb / n, 1),
                    core::Fixed(acc.results / n, 0)});
    }
  }
  table.Print();
  return 0;
}
