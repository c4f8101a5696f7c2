// Figure 12: learning under spatially skewed and temporally changing
// selectivities, Queries 1 and 2, 800 sampling cycles, Innet-cmpg.
//
// (a) Spatial: half of the nodes generate under Sel1 (sigma_s=10%,
//     sigma_t=100%, sigma_st=5%), the other half under Sel2 (100%, 10%,
//     20%). Columns: initiate-for-Sel1, initiate-for-Sel2, Full knowledge
//     (oracle: per-node true parameters), and the learning variants of the
//     first two. Learning approaches the oracle.
// (b) Temporal: all nodes run Sel1 for the first 400 cycles, then switch to
//     Sel2. "Full knowledge" here is correct initial estimates plus
//     learning (an oracle that adapts at the switch at no extra cost is not
//     physically realizable; see EXPERIMENTS.md).

#include "bench/bench_util.h"

using namespace aspen;
using namespace aspen::benchutil;

namespace {

const workload::SelectivityParams kSel1{0.10, 1.00, 0.05};
const workload::SelectivityParams kSel2{1.00, 0.10, 0.20};

using Factory = std::function<Result<workload::Workload>(uint64_t)>;

void RunScenario(const char* name, const Factory& factory, int cycles) {
  const int runs = RunsFromEnv(3);
  AlgoSpec cmpg{join::Algorithm::kInnet, join::InnetFeatures::Cmpg()};
  core::Table table({"column", name});
  struct Column {
    const char* label;
    workload::SelectivityParams assumed;
    bool learn;
    bool oracle;
  };
  const Column columns[] = {
      {"Sel1", kSel1, false, false},
      {"Sel2", kSel2, false, false},
      {"Full knowledge", kSel1, false, true},
      {"Sel1 learn", kSel1, true, false},
      {"Sel2 learn", kSel2, true, false},
  };
  for (const auto& col : columns) {
    auto opts = MakeOptions(cmpg, col.assumed);
    if (col.learn || col.oracle) opts.knobs.UsePaperLearning();
    opts.oracle = col.oracle;
    auto agg = OrDie(core::RunAveraged(factory, opts, cycles, runs));
    table.AddRow({col.label, core::HumanBytes(agg.total_bytes)});
  }
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Figure 12", "Spatial & temporal selectivity learning");
  net::Topology topo = PaperTopology();
  const int cycles = CyclesFromEnv(800);

  std::printf("\n(a) Spatial skew: half Sel1, half Sel2 (%d cycles)\n",
              cycles);
  auto spatial = [&](auto make_query) {
    return [&, make_query](uint64_t seed) -> Result<workload::Workload> {
      ASPEN_ASSIGN_OR_RETURN(workload::Workload wl, make_query(seed));
      for (net::NodeId i = 0; i < topo.num_nodes(); ++i) {
        wl.SetNodeParams(i, i % 2 == 0 ? kSel1 : kSel2);
      }
      return wl;
    };
  };
  RunScenario("Q1 traffic",
              spatial([&](uint64_t seed) {
                return workload::Workload::MakeQuery1(&topo, kSel1, 3, seed);
              }),
              cycles);
  RunScenario("Q2 traffic",
              spatial([&](uint64_t seed) {
                return workload::Workload::MakeQuery2(&topo, kSel1, 1, seed);
              }),
              cycles);

  std::printf("\n(b) Temporal change: Sel1 then Sel2 at cycle %d\n",
              cycles / 2);
  auto temporal = [&](auto make_query) {
    return [&, make_query](uint64_t seed) -> Result<workload::Workload> {
      ASPEN_ASSIGN_OR_RETURN(workload::Workload wl, make_query(seed));
      wl.SetGlobalSwitch(cycles / 2, kSel2);
      return wl;
    };
  };
  RunScenario("Q1 traffic",
              temporal([&](uint64_t seed) {
                return workload::Workload::MakeQuery1(&topo, kSel1, 3, seed);
              }),
              cycles);
  RunScenario("Q2 traffic",
              temporal([&](uint64_t seed) {
                return workload::Workload::MakeQuery2(&topo, kSel1, 1, seed);
              }),
              cycles);
  return 0;
}
