#include <memory>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "join/executor.h"
#include "net/topology.h"
#include "tests/reference_join.h"
#include "tests/solo_query.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using testing_util::SoloQuery;
using workload::SelectivityParams;
using workload::Workload;

net::Topology Topo(uint64_t seed = 42) {
  return *net::Topology::Random(100, 7.0, seed);
}

ExecutorOptions Opts(Algorithm algo, InnetFeatures f = {},
                     SelectivityParams assumed = {0.5, 0.5, 0.2}) {
  ExecutorOptions o;
  o.algorithm = algo;
  o.features = f;
  o.assumed = assumed;
  o.seed = 1;
  return o;
}

// ---- cross-algorithm result agreement (the central correctness property) ----

struct AlgoCase {
  Algorithm algo;
  InnetFeatures features;
};

class ResultAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, AlgoCase>> {};

TEST_P(ResultAgreementTest, MatchesReferenceCount) {
  auto [query_id, algo_case] = GetParam();
  net::Topology topo = Topo();
  net::Topology intel = net::Topology::IntelLab();
  SelectivityParams sel{0.5, 0.5, 0.2};
  Result<Workload> wl = Status::Internal("unset");
  switch (query_id) {
    case 0:
      wl = Workload::MakeQuery0(&topo, sel, 8, 3, 7);
      break;
    case 1:
      wl = Workload::MakeQuery1(&topo, sel, 3, 7);
      break;
    case 2:
      wl = Workload::MakeQuery2(&topo, sel, 1, 7);
      break;
    case 3:
      wl = Workload::MakeQuery3(&intel, 1, 7);
      break;
  }
  ASSERT_TRUE(wl.ok());
  const int cycles = 40;
  uint64_t expected = testing_util::ReferenceResults(*wl, cycles);
  ASSERT_GT(expected, 0u) << "workload produces no joins; test is vacuous";
  auto stats = core::RunExperiment(*wl, Opts(algo_case.algo,
                                             algo_case.features, sel),
                                   cycles);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->results, expected)
      << stats->algorithm << " on query " << query_id;
}

INSTANTIATE_TEST_SUITE_P(
    QueriesByAlgorithms, ResultAgreementTest,
    ::testing::Combine(
        ::testing::Values(0, 1, 2, 3),
        ::testing::Values(AlgoCase{Algorithm::kNaive, {}},
                          AlgoCase{Algorithm::kBase, {}},
                          AlgoCase{Algorithm::kYang07, {}},
                          AlgoCase{Algorithm::kGht, {}},
                          AlgoCase{Algorithm::kInnet, InnetFeatures::None()},
                          AlgoCase{Algorithm::kInnet, InnetFeatures::Cm()},
                          AlgoCase{Algorithm::kInnet, InnetFeatures::Cmg()},
                          AlgoCase{Algorithm::kInnet,
                                   InnetFeatures::Cmpg()})));

TEST(TimeWindowTest, ExecutorMatchesReferenceWithTimeWindows) {
  // Footnote 5: time-based windows. With gating filters, producers skip
  // cycles, so tuple- and time-based windows genuinely differ; the executor
  // must match the time-based reference.
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 4, 7);
  ASSERT_TRUE(wl.ok());
  query::JoinQuery q = wl->join_query();
  q.window.time_based = true;
  auto timed = Workload::FromQuery(&topo, q, sel, 7);
  ASSERT_TRUE(timed.ok());
  const int cycles = 40;
  uint64_t expected = testing_util::ReferenceResults(*timed, cycles);
  uint64_t tuple_expected = testing_util::ReferenceResults(*wl, cycles);
  EXPECT_NE(expected, tuple_expected) << "modes indistinguishable: vacuous";
  for (Algorithm algo : {Algorithm::kBase, Algorithm::kInnet}) {
    auto stats = core::RunExperiment(*timed, Opts(algo, {}, sel), cycles);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->results, expected) << stats->algorithm;
  }
}

// ---- lifecycle ---------------------------------------------------------------

TEST(ExecutorTest, RunCyclesIsResumable) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  SoloQuery split(&*wl, Opts(Algorithm::kBase));
  ASSERT_TRUE(split.exec.Initiate().ok());
  ASSERT_TRUE(split.RunCycles(20).ok());
  ASSERT_TRUE(split.RunCycles(20).ok());
  auto whole = core::RunExperiment(*wl, Opts(Algorithm::kBase), 40);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(split.exec.results(), whole->results);
  EXPECT_EQ(split.exec.current_cycle(), 40);
}

// ---- placement properties -----------------------------------------------------

TEST(ExecutorTest, InnetPlacementNeverCostsMoreThanBase) {
  // Section 3.2's claim: with the same initiation, the chosen placement's
  // modeled cost is never above the at-base cost.
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  SoloQuery solo(&*wl, Opts(Algorithm::kInnet, {}, sel));
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  routing::RoutingTree tree = routing::RoutingTree::Build(topo, 0);
  opt::PairCostInputs cost{sel.sigma_s, sel.sigma_t, sel.sigma_st, 3};
  for (const auto& pl : exec.placements()) {
    ASSERT_FALSE(pl.path.empty());
    double base_cost =
        opt::BasePairCost(cost, tree.DepthOf(pl.pair.s), tree.DepthOf(pl.pair.t));
    if (!pl.at_base) {
      double innet_cost = opt::InnetPairCost(
          cost, pl.path_index,
          static_cast<int>(pl.path.size()) - 1 - pl.path_index,
          tree.DepthOf(pl.join_node));
      EXPECT_LT(innet_cost, base_cost) << "pair " << pl.pair.s << "," << pl.pair.t;
    }
  }
}

TEST(ExecutorTest, InnetJoinNodeLiesOnPath) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.2, 0.2, 0.2};
  auto wl = Workload::MakeQuery0(&topo, sel, 10, 3, 7);
  ASSERT_TRUE(wl.ok());
  SoloQuery solo(&*wl, Opts(Algorithm::kInnet, {}, sel));
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  for (const auto& pl : exec.placements()) {
    ASSERT_FALSE(pl.path.empty());
    EXPECT_EQ(pl.path.front(), pl.pair.s);
    EXPECT_EQ(pl.path.back(), pl.pair.t);
    ASSERT_GE(pl.path_index, 0);
    ASSERT_LT(pl.path_index, static_cast<int>(pl.path.size()));
    EXPECT_EQ(pl.path[pl.path_index], pl.join_node);
    for (size_t i = 0; i + 1 < pl.path.size(); ++i) {
      EXPECT_TRUE(topo.AreNeighbors(pl.path[i], pl.path[i + 1]));
    }
  }
}

TEST(ExecutorTest, LowJoinSelectivityPushesJoinsInNetwork) {
  // With rare results, shipping both streams to the base wastes traffic,
  // so most pairwise placements should sit inside the network.
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 0.05};
  auto wl = Workload::MakeQuery0(&topo, sel, 10, 1, 7);
  ASSERT_TRUE(wl.ok());
  SoloQuery solo(&*wl, Opts(Algorithm::kInnet, {}, sel));
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  int in_network = 0;
  for (const auto& pl : exec.placements()) {
    in_network += pl.at_base ? 0 : 1;
  }
  EXPECT_GT(in_network, 5);
}

// ---- traffic properties ---------------------------------------------------------

TEST(ExecutorTest, BasePrefilteringBeatsNaive) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto make = [&]() { return *Workload::MakeQuery1(&topo, sel, 3, 7); };
  auto wl1 = make();
  auto wl2 = make();
  auto naive = core::RunExperiment(wl1, Opts(Algorithm::kNaive), 60);
  auto base = core::RunExperiment(wl2, Opts(Algorithm::kBase), 60);
  ASSERT_TRUE(naive.ok() && base.ok());
  // Query 1 keeps only a fraction of nodes; pre-filtering pays off fast.
  EXPECT_LT(base->total_bytes, naive->total_bytes);
  EXPECT_LT(base->base_bytes, naive->base_bytes);
}

TEST(ExecutorTest, CombiningReducesTraffic) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto wl2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  InnetFeatures plain;
  InnetFeatures combining;
  combining.combining = true;
  auto without = core::RunExperiment(wl1, Opts(Algorithm::kInnet, plain, sel),
                                     60);
  auto with = core::RunExperiment(wl2, Opts(Algorithm::kInnet, combining, sel),
                                  60);
  ASSERT_TRUE(without.ok() && with.ok());
  EXPECT_LE(with->total_bytes, without->total_bytes);
  EXPECT_EQ(with->results, without->results);
}

TEST(ExecutorTest, GroupOptNeverWorseThanPlainInnetOnQuery1) {
  // Section 5.3: the MPO techniques match or beat standard Innet.
  net::Topology topo = Topo();
  for (double sigma_s : {0.1, 0.5, 1.0}) {
    SelectivityParams sel{sigma_s, 0.5, 0.2};
    auto wl1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    auto wl2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    InnetFeatures cm = InnetFeatures::Cm();
    auto plain = core::RunExperiment(wl1, Opts(Algorithm::kInnet, cm, sel),
                                     80);
    auto grouped = core::RunExperiment(
        wl2, Opts(Algorithm::kInnet, InnetFeatures::Cmg(), sel), 80);
    ASSERT_TRUE(plain.ok() && grouped.ok());
    EXPECT_LE(grouped->total_bytes, plain->total_bytes * 11 / 10)
        << "sigma_s=" << sigma_s;
  }
}

TEST(ExecutorTest, MeshModeCountsMessages) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts = Opts(Algorithm::kGht, {}, sel);
  opts.mesh_mode = true;
  auto stats = core::RunExperiment(*wl, opts, 30);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->total_messages, 0u);
  uint64_t expected = testing_util::ReferenceResults(*wl, 30);
  EXPECT_EQ(stats->results, expected);
}

TEST(ExecutorTest, LossyNetworkStillDeliversMostResults) {
  net::Topology topo = Topo();
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts = Opts(Algorithm::kBase, {}, sel);
  opts.loss_prob = 0.05;
  opts.max_retries = 5;
  auto stats = core::RunExperiment(*wl, opts, 40);
  ASSERT_TRUE(stats.ok());
  uint64_t expected = testing_util::ReferenceResults(*wl, 40);
  EXPECT_GT(stats->results, expected * 9 / 10);
  EXPECT_LE(stats->results, expected);
}

// ---- learning (Section 6) --------------------------------------------------------

TEST(LearningTest, WrongEstimatesTriggerMigrations) {
  net::Topology topo = Topo();
  SelectivityParams truth{0.1, 1.0, 0.2};
  SelectivityParams wrong{1.0, 0.1, 0.2};
  auto wl = Workload::MakeQuery0(&topo, truth, 10, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts = Opts(Algorithm::kInnet, {}, wrong);
  opts.knobs.UsePaperLearning();
  opts.knobs.reopt_interval = 10;
  SoloQuery solo(&*wl, opts);
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(100).ok());
  EXPECT_GT(exec.migrations(), 0u);
}

TEST(LearningTest, LearningReducesTrafficUnderWrongEstimates) {
  net::Topology topo = Topo();
  SelectivityParams truth{0.1, 1.0, 0.2};
  SelectivityParams wrong{1.0, 0.1, 0.2};
  auto wl1 = *Workload::MakeQuery0(&topo, truth, 10, 3, 7);
  auto wl2 = *Workload::MakeQuery0(&topo, truth, 10, 3, 7);
  ExecutorOptions fixed = Opts(Algorithm::kInnet, {}, wrong);
  ExecutorOptions learn = fixed;
  learn.knobs.UsePaperLearning();
  learn.knobs.reopt_interval = 10;
  auto without = core::RunExperiment(wl1, fixed, 300);
  auto with = core::RunExperiment(wl2, learn, 300);
  ASSERT_TRUE(without.ok() && with.ok());
  EXPECT_LT(with->total_bytes, without->total_bytes);
  EXPECT_EQ(with->results, without->results);  // migration loses nothing
}

TEST(LearningTest, CorrectEstimatesStayPut) {
  net::Topology topo = Topo();
  SelectivityParams truth{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery0(&topo, truth, 10, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts = Opts(Algorithm::kInnet, {}, truth);
  opts.knobs.UsePaperLearning();
  opts.knobs.reopt_interval = 20;
  SoloQuery solo(&*wl, opts);
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(120).ok());
  // Estimator noise may cause an occasional move, but placements computed
  // from the true values should be largely stable.
  EXPECT_LE(exec.migrations(), exec.pairs().size());
}

// ---- failure recovery (Section 7) --------------------------------------------------

TEST(FailureTest, JoinNodeDeathFailsOverToBase) {
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 0.2};
  auto wl = Workload::MakeQuery0(&topo, sel, 6, 3, 7);
  ASSERT_TRUE(wl.ok());
  SoloQuery solo(&*wl, Opts(Algorithm::kInnet, {}, sel));
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  // Find an in-network join node to kill.
  net::NodeId victim = -1;
  for (const auto& pl : exec.placements()) {
    if (!pl.at_base && pl.join_node != pl.pair.s && pl.join_node != pl.pair.t) {
      victim = pl.join_node;
      break;
    }
  }
  ASSERT_GE(victim, 0) << "no in-network placement to fail";
  ASSERT_TRUE(solo.RunCycles(20).ok());
  uint64_t before = exec.results();
  exec.FailNode(victim);
  ASSERT_TRUE(solo.RunCycles(40).ok());
  // The affected pairs switched to the base and keep producing.
  bool failed_over = false;
  for (const auto& pl : exec.placements()) {
    if (pl.failed_over) {
      EXPECT_TRUE(pl.at_base);
      failed_over = true;
    }
  }
  EXPECT_TRUE(failed_over);
  EXPECT_GT(exec.results(), before);
  EXPECT_GT(exec.Stats().failovers, 0u);
}

TEST(FailureTest, ResultsKeepFlowingAfterFailure) {
  // Compare against an unfailed run: after the failover settles, per-cycle
  // result production recovers (only in-flight tuples at the failed node
  // are lost).
  net::Topology topo = Topo();
  SelectivityParams sel{1.0, 1.0, 0.2};
  auto wl1 = *Workload::MakeQuery0(&topo, sel, 6, 3, 7);
  auto wl2 = *Workload::MakeQuery0(&topo, sel, 6, 3, 7);
  auto healthy = core::RunExperiment(wl1, Opts(Algorithm::kInnet, {}, sel),
                                     100);
  ASSERT_TRUE(healthy.ok());

  SoloQuery faulty(&wl2, Opts(Algorithm::kInnet, {}, sel));
  ASSERT_TRUE(faulty.exec.Initiate().ok());
  net::NodeId victim = -1;
  for (const auto& pl : faulty.exec.placements()) {
    if (!pl.at_base && pl.join_node != pl.pair.s && pl.join_node != pl.pair.t) {
      victim = pl.join_node;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(faulty.RunCycles(50).ok());
  faulty.exec.FailNode(victim);
  ASSERT_TRUE(faulty.RunCycles(50).ok());
  EXPECT_GT(faulty.exec.results(), healthy->results * 7 / 10);
}

}  // namespace
}  // namespace join
}  // namespace aspen
