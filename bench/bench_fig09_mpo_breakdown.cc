// Figure 9: breakdown of the MPO contributions on Query 2 (w = 1).
// (a) cumulative traffic vs run duration (0..300 cycles): Naive has no
//     initiation cost and wins very short runs; the Innet variants amortize
//     their setup and win longer ones.
// (b) total traffic after 1000 cycles for the Innet variants across join
//     selectivities: cmpg achieves additional gains on long runs.

#include "bench/bench_util.h"
#include "join/medium.h"

using namespace aspen;
using namespace aspen::benchutil;

int main() {
  PrintHeader("Figure 9", "Method vs duration & MPO variants (Query 2, w=1)");
  net::Topology topo = PaperTopology();
  workload::SelectivityParams sel{0.5, 0.5, 0.1};

  std::vector<AlgoSpec> algos = {
      {join::Algorithm::kNaive, {}},
      {join::Algorithm::kBase, {}},
      {join::Algorithm::kGht, {}},
      {join::Algorithm::kInnet, join::InnetFeatures::None()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cm()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmpg()},
  };

  std::printf("\n(a) Cumulative traffic (KB) vs duration (sampling cycles)\n");
  std::vector<std::string> headers{"cycles"};
  for (const auto& a : algos) headers.push_back(a.Name());
  core::Table by_duration(headers);
  // One query per algorithm, each alone on its medium, sampled every 30
  // cycles.
  std::vector<std::unique_ptr<workload::Workload>> wls;
  std::vector<std::unique_ptr<join::SharedMedium>> media;
  for (const auto& algo : algos) {
    wls.push_back(std::make_unique<workload::Workload>(
        OrDie(workload::Workload::MakeQuery2(&topo, sel, 1, 7))));
    const join::ExecutorOptions opts = MakeOptions(algo, sel);
    media.push_back(std::make_unique<join::SharedMedium>(
        &topo, join::NetworkOptionsFor(opts),
        join::SoloMediumOptions(*wls.back(), opts)));
    if (!media.back()->AddQuery(wls.back().get(), opts)->Initiate().ok()) {
      return 1;
    }
  }
  for (int cycles = 0; cycles <= 300; cycles += 30) {
    std::vector<std::string> row{std::to_string(cycles)};
    for (auto& medium : media) {
      if (cycles > 0 && !medium->RunCycles(30).ok()) return 1;
      row.push_back(
          core::Fixed(medium->stats().TotalBytesSent() / 1024.0, 1));
    }
    by_duration.AddRow(row);
  }
  by_duration.Print();

  std::printf("\n(b) Total traffic after 1000 cycles vs join selectivity\n");
  std::vector<AlgoSpec> variants = {
      {join::Algorithm::kInnet, join::InnetFeatures::None()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cm()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmg()},
      {join::Algorithm::kInnet, join::InnetFeatures::Cmpg()},
  };
  std::vector<std::string> h2{"sigma_st"};
  for (const auto& v : variants) h2.push_back(v.Name());
  core::Table long_run(h2);
  const int runs = RunsFromEnv(3);
  for (const auto& js : JoinSels()) {
    workload::SelectivityParams p{0.5, 0.5, js.value};
    std::vector<std::string> row{js.label};
    for (const auto& v : variants) {
      auto agg = OrDie(core::RunAveraged(
          [&](uint64_t seed) {
            return workload::Workload::MakeQuery2(&topo, p, 1, seed);
          },
          MakeOptions(v, p), CyclesFromEnv(1000), runs));
      row.push_back(core::HumanBytes(agg.total_bytes));
    }
    long_run.AddRow(row);
  }
  long_run.Print();
  return 0;
}
