// Table 3: analytic cost-model validation. For Query 1 the per-cycle
// computation cost of each algorithm is computed from the closed-form
// expressions of Appendix D and compared against the traffic measured by
// the simulator. The analytic unit is expected tuple-hops; it is converted
// to bytes with the data-message wire size. Result-forwarding terms use the
// result wire size, so ratios near 1.0 validate both the formulas and the
// simulator's accounting.

#include "bench/bench_util.h"
#include "join/executor.h"
#include "join/medium.h"
#include "opt/cost_model.h"
#include "routing/content_address.h"
#include "routing/routing_tree.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Table 3", "Analytic vs simulated computation cost (Query 1)");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.2};
  const int cycles = CyclesFromEnv(200);
  auto tree = routing::RoutingTree::Build(topo, 0);

  auto wl = OrDie(workload::Workload::MakeQuery1(&topo, sel, 3, 7));
  // Realized rates (the filters hit the targets only up to domain quanta).
  auto design = workload::DesignFilters(sel);
  opt::AlgorithmCostInputs in;
  in.pair = {design.realized_s, design.realized_t, design.realized_st, 3};

  // Selection-eligible nodes vs pair-participating nodes give phi.
  std::set<net::NodeId> s_sel, t_sel, s_pairing, t_pairing;
  for (net::NodeId u = 0; u < topo.num_nodes(); ++u) {
    if (wl.SEligible(u)) s_sel.insert(u);
    if (wl.TEligible(u)) t_sel.insert(u);
  }
  for (const auto& [s, t] : wl.AllJoinPairs()) {
    s_pairing.insert(s);
    t_pairing.insert(t);
  }
  in.phi_s_to_t = s_sel.empty() ? 0
                                : static_cast<double>(s_pairing.size()) /
                                      s_sel.size();
  in.phi_t_to_s = t_sel.empty() ? 0
                                : static_cast<double>(t_pairing.size()) /
                                      t_sel.size();
  in.num_s = static_cast<int>(s_pairing.size());
  in.num_t = static_cast<int>(t_pairing.size());

  const double data_bytes =
      wl.DataBytes() + net::WireFormat::kLinkHeaderBytes;

  core::Table table({"algorithm", "analytic (KB)", "simulated (KB)",
                     "sim/analytic"});
  auto add_row = [&](const std::string& name, double analytic_hops,
                     const AlgoSpec& spec) {
    auto wl_run = OrDie(workload::Workload::MakeQuery1(&topo, sel, 3, 7));
    auto stats =
        OrDie(core::RunExperiment(wl_run, MakeOptions(spec, sel), cycles));
    double analytic_kb = analytic_hops * data_bytes * cycles / 1024.0;
    double simulated_kb = stats.computation_bytes / 1024.0;
    table.AddRow({name, core::Fixed(analytic_kb, 1),
                  core::Fixed(simulated_kb, 1),
                  core::Fixed(simulated_kb / std::max(analytic_kb, 1e-9), 2)});
  };

  // Naive / Base: depths of the *selection*-eligible (resp. pairing) nodes.
  {
    opt::AlgorithmCostInputs naive_in = in;
    for (net::NodeId u : s_sel) naive_in.d_sr.push_back(tree.DepthOf(u));
    for (net::NodeId u : t_sel) naive_in.d_tr.push_back(tree.DepthOf(u));
    add_row("Naive", opt::NaiveComputationCost(naive_in),
            {join::Algorithm::kNaive, {}});
    // Base: phi applies to the same population.
    add_row("Base", opt::BaseComputationCost(naive_in),
            {join::Algorithm::kBase, {}});
    add_row("Yang+07", opt::Yang07ComputationCost(naive_in),
            {join::Algorithm::kYang07, {}});
  }

  // GHT: per-pair distances along greedy geographic paths.
  {
    opt::AlgorithmCostInputs ght_in = in;
    routing::GeoHash geo(&topo, /*salt=*/1);
    for (const auto& [s, t] : wl.AllJoinPairs()) {
      net::NodeId j = geo.NodeForKey(*wl.SJoinKey(s));
      opt::AlgorithmCostInputs::PairDistances pd;
      pd.d_sj = static_cast<int>(geo.GreedyPath(s, j).size()) - 1;
      pd.d_tj = static_cast<int>(geo.GreedyPath(t, j).size()) - 1;
      pd.d_jr = tree.DepthOf(j);
      ght_in.pairs.push_back(pd);
    }
    add_row("GHT", opt::GhtComputationCost(ght_in),
            {join::Algorithm::kGht, {}});
  }

  // In-Net: per-pair distances from the executor's actual placements.
  {
    auto wl_place = OrDie(workload::Workload::MakeQuery1(&topo, sel, 3, 7));
    const join::ExecutorOptions opts = MakeOptions(
        {join::Algorithm::kInnet, join::InnetFeatures::None()}, sel);
    join::SharedMedium medium(&topo, join::NetworkOptionsFor(opts),
                              join::SoloMediumOptions(wl_place, opts));
    join::JoinExecutor& exec = *medium.AddQuery(&wl_place, opts);
    if (!exec.Initiate().ok()) return 1;
    opt::AlgorithmCostInputs innet_in = in;
    for (const auto& pl : exec.placements()) {
      opt::AlgorithmCostInputs::PairDistances pd;
      if (pl.at_base) {
        pd.d_sj = tree.DepthOf(pl.pair.s);
        pd.d_tj = tree.DepthOf(pl.pair.t);
        pd.d_jr = 0;
      } else {
        pd.d_sj = pl.path_index;
        pd.d_tj = static_cast<int>(pl.path.size()) - 1 - pl.path_index;
        pd.d_jr = tree.DepthOf(pl.join_node);
      }
      innet_in.pairs.push_back(pd);
    }
    add_row("In-Net", opt::InnetComputationCost(innet_in),
            {join::Algorithm::kInnet, join::InnetFeatures::None()});
  }
  std::printf("%d cycles; analytic = Table 3 formula x wire bytes\n", cycles);
  table.Print();
  std::printf(
      "\nNote: the simulator additionally pays per-result wire size and\n"
      "multi-message effects the closed forms abstract away, so ratios\n"
      "within ~0.6-1.6 validate the model.\n");
  return 0;
}
