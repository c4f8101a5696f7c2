// Figure 6: centralized vs distributed initiation for a query of 1:1 joins
// between 10 random node pairs (sigma_s = 1, sigma_t = sigma_st = 0).
// (a) initiation traffic at the base station: the distributed scheme avoids
//     flooding connectivity and attribute state to the root.
// (b) initiation latency: the base's radio serializes the centralized
//     in-gathering, so centralized initiation takes several times longer.

#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"
#include "opt/centralized.h"
#include "routing/routing_tree.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 6", "Centralized vs distributed initiation");
  const int runs = RunsFromEnv();
  double cent_base = 0, dist_base = 0, cent_total = 0, dist_total = 0;
  double cent_lat = 0, dist_lat = 0;
  for (int r = 0; r < runs; ++r) {
    net::Topology topo = PaperTopology(42 + r);
    workload::SelectivityParams sel{1.0, 1.0, 0.2};  // pair structure only
    auto wl =
        OrDie(workload::Workload::MakeQuery0(&topo, sel, 10, 1, 7 + r));

    // Distributed: the Innet executor's own initiation (multi-tree
    // construction, exploration, nomination).
    join::ExecutorOptions opts =
        MakeOptions({join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
                    sel);
    join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                              join::SoloMediumOptions(wl, opts));
    join::JoinExecutor& exec = *medium.AddQuery(&wl, opts);
    if (!exec.Initiate().ok()) return 1;
    dist_base += static_cast<double>(exec.network().stats().BaseStationBytes());
    dist_total += static_cast<double>(exec.network().stats().TotalBytesSent());
    dist_lat += exec.Stats().init_latency_cycles;

    // Centralized: ship connectivity + static attributes to the base,
    // optimize there, distribute the plan.
    auto tree = routing::RoutingTree::Build(topo, 0);
    std::vector<net::NodeId> participants;
    for (const auto& [s, t] : wl.AllJoinPairs()) {
      participants.push_back(s);
      participants.push_back(t);
    }
    auto cent = opt::CentralizedInitiation(topo, tree, /*static_attrs=*/4,
                                           participants);
    cent_base += static_cast<double>(cent.base_bytes);
    cent_total += static_cast<double>(cent.total_bytes);
    cent_lat += cent.latency_cycles;
  }
  core::Table table({"scheme", "init traffic at base", "total init traffic",
                     "init latency (tx cycles)"});
  table.AddRow({"Centralized", core::HumanBytes(cent_base / runs),
                core::HumanBytes(cent_total / runs),
                core::Fixed(cent_lat / runs, 0)});
  table.AddRow({"Distributed (Innet)", core::HumanBytes(dist_base / runs),
                core::HumanBytes(dist_total / runs),
                core::Fixed(dist_lat / runs, 0)});
  table.AddRow({"centralized / distributed",
                core::Fixed(cent_base / std::max(dist_base, 1.0), 2) + "x",
                core::Fixed(cent_total / std::max(dist_total, 1.0), 2) + "x",
                core::Fixed(cent_lat / std::max(dist_lat, 1.0), 2) + "x"});
  table.Print();
  return 0;
}
