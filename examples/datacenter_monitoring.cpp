// Data-center monitoring (the paper's Query R): wireless sensors pair up
// energy/temperature readings from *adjacent* devices and report anomalies
// to the base station with low latency.
//
// This example runs the region-based join
//     Dst < 5m AND s.id < t.id AND abs(s.v - t.v) > 1000
// on the 54-node Intel-like deployment, in three acts:
//   1. Start with worst-case selectivity estimates (everything at the base).
//   2. Let adaptive learning migrate join nodes into the network.
//   3. Kill a join node mid-run and watch failure recovery keep results
//      flowing via the base-station fallback.

#include <cstdio>

#include "core/report.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "workload/workload.h"

using namespace aspen;

int main() {
  net::Topology topo = net::Topology::IntelLab();
  std::printf("deployment: %d sensors, avg %.1f neighbors\n\n",
              topo.num_nodes(), topo.AverageDegree());

  auto wl = workload::Workload::MakeQuery3(&topo, /*window=*/1, /*seed=*/7);
  if (!wl.ok()) {
    std::fprintf(stderr, "%s\n", wl.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", wl->join_query().where->ToString().c_str());
  std::printf("statically joining close pairs: %zu\n\n",
              wl->AllJoinPairs().size());

  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cmg();
  // Act 1: no knowledge — assume everything matches all the time.
  opts.assumed = {1.0, 1.0, 1.0};
  opts.knobs.UsePaperLearning();

  // The query runs alone on a medium configured exactly as
  // core::RunExperiment would host it.
  join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                            join::SoloMediumOptions(*wl, opts));
  join::JoinExecutor& exec = *medium.AddQuery(&*wl, opts);
  if (!exec.Initiate().ok()) return 1;
  int at_base = 0;
  for (const auto& pl : exec.placements()) at_base += pl.at_base;
  std::printf("act 1 — pessimistic initiation: %d/%zu pairs join at the "
              "base\n",
              at_base, exec.placements().size());

  // Act 2: learning.
  (void)medium.RunCycles(400);
  at_base = 0;
  for (const auto& pl : exec.placements()) at_base += pl.at_base;
  std::printf(
      "act 2 — after 400 cycles of learning: %d/%zu pairs at the base, "
      "%lu join-node migrations, %lu results delivered\n",
      at_base, exec.placements().size(),
      static_cast<unsigned long>(exec.migrations()),
      static_cast<unsigned long>(exec.results()));

  // Act 3: fail the busiest in-network join node.
  net::NodeId victim = -1;
  for (const auto& pl : exec.placements()) {
    if (!pl.at_base && pl.join_node != pl.pair.s && pl.join_node != pl.pair.t) {
      victim = pl.join_node;
      break;
    }
  }
  if (victim >= 0) {
    exec.FailNode(victim);
    uint64_t before = exec.results();
    (void)medium.RunCycles(200);
    auto stats = exec.Stats();
    std::printf(
        "act 3 — node %d failed: %lu pairs failed over to the base, "
        "%lu further results, max delay %.0f cycles\n",
        victim, static_cast<unsigned long>(stats.failovers),
        static_cast<unsigned long>(exec.results() - before),
        stats.max_result_delay_cycles);
  }

  auto stats = exec.Stats();
  std::printf("\ntotals: %s traffic, base station saw %s, %lu results\n",
              core::HumanBytes(static_cast<double>(stats.total_bytes)).c_str(),
              core::HumanBytes(static_cast<double>(stats.base_bytes)).c_str(),
              static_cast<unsigned long>(stats.results));
  return 0;
}
