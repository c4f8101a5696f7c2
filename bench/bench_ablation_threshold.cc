// Ablation: the 33% divergence trigger (Section 6). Sweeps the re-placement
// threshold on a learning run with wrong initial estimates. Too eager
// (small threshold) thrashes join nodes and pays migration overhead; too
// lazy (large threshold) never corrects the bad placement. The paper
// found 33% a good compromise.

#include "bench/bench_util.h"
#include "join/executor.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Ablation", "Divergence threshold for adaptive re-placement");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams truth{0.1, 1.0, 0.2};
  workload::SelectivityParams wrong{1.0, 0.1, 0.2};
  const int cycles = CyclesFromEnv(400);
  const int runs = RunsFromEnv(3);

  core::Table table({"threshold", "total traffic", "migrations",
                     "vs no learning"});
  auto factory = [&](uint64_t seed) {
    return workload::Workload::MakeQuery0(&topo, truth, 25, 3, seed);
  };
  AlgoSpec innet{join::Algorithm::kInnet, join::InnetFeatures::None()};
  auto base_opts = MakeOptions(innet, wrong);
  auto baseline = OrDie(core::RunAveraged(factory, base_opts, cycles, runs));

  for (double threshold : {0.05, 0.15, 0.33, 0.50, 0.75, 2.0}) {
    auto opts = base_opts;
    opts.knobs.UsePaperLearning();
    opts.knobs.reopt_threshold = threshold;
    auto agg = OrDie(core::RunAveraged(factory, opts, cycles, runs));
    double pct = (baseline.total_bytes - agg.total_bytes) /
                 baseline.total_bytes * 100.0;
    table.AddRow({core::Fixed(threshold, 2),
                  core::HumanBytes(agg.total_bytes),
                  core::Fixed(agg.migrations, 1),
                  (pct >= 0 ? "-" : "+") + core::Fixed(std::abs(pct), 1) +
                      "%"});
  }
  std::printf("Query 0 (25 pairs), truth 1/10:1, optimized for 1:1/10, %d "
              "cycles\nno-learning baseline: %s\n\n",
              cycles, core::HumanBytes(baseline.total_bytes).c_str());
  table.Print();
  return 0;
}
