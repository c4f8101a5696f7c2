// Section 7 failure recovery, exercised end to end through the scenario
// engine: join-node death is detected via exhausted retries, the pair fails
// over to the base, producers replay their buffered windows, and the whole
// scenario is deterministic. Every algorithm that joins away from the base
// (Innet, GHT/DHT, Yang+07) then sends its failed-over pairs' fresh samples
// to the base. Also the regression test for the loss-draw short-circuit fix
// in Network::Step (draws are consumed unconditionally, so node failure
// never perturbs loss outcomes on untouched links).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "common/phase.h"
#include "core/engine.h"
#include "join/executor.h"
#include "net/network.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "tests/solo_query.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using net::NodeId;
using testing_util::SoloQuery;
using workload::SelectivityParams;
using workload::Workload;

/// A single-pair Query 0 workload whose join node is forced in-network by a
/// low assumed join selectivity (the Figure 14 configuration). Heap-owned
/// so the workload's topology pointer stays valid wherever the fixture
/// moves.
struct FailureFixture {
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<Workload> wl;
  join::ExecutorOptions opts;

  static FailureFixture Make(uint64_t seed) {
    FailureFixture fx;
    fx.topo = std::make_unique<net::Topology>(
        *net::Topology::Random(100, 7.0, 42));
    SelectivityParams sel{1.0, 1.0, 0.5};
    fx.wl = std::make_unique<Workload>(*Workload::MakeQuery0(
        fx.topo.get(), sel, /*num_pairs=*/1, /*window=*/3, seed));
    fx.opts.algorithm = join::Algorithm::kInnet;
    fx.opts.features = join::InnetFeatures::None();
    fx.opts.assumed = {1.0, 1.0, 0.02};
    fx.opts.seed = seed;
    return fx;
  }
};

/// The in-network join node of the fixture's single pair (asserts one
/// exists and is neither producer).
NodeId InnetJoinNode(const join::JoinExecutor& exec) {
  for (const auto& pl : exec.placements()) {
    if (!pl.at_base && pl.join_node != pl.pair.s && pl.join_node != pl.pair.t) {
      return pl.join_node;
    }
  }
  return -1;
}

TEST(FailureRecoveryTest, FailoverReplaysBufferedWindowsAfterRecovery) {
  // The single test thread is the sequential phase: nothing runs
  // concurrently with these direct network mutations.
  common::SequentialPhaseScope seq_phase;
  // The relay (the in-network join node) dies mid-run and — in this seed's
  // topology — also sits on one producer's tree path to the base, so that
  // producer's failover replay cannot initially get through. Both
  // producers must fail over, and once the relay recovers, the pending
  // replay retry delivers the buffered window and results resume.
  FailureFixture fx = FailureFixture::Make(/*seed=*/7);
  SoloQuery solo(fx.wl.get(), fx.opts);
  join::JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  NodeId j = InnetJoinNode(exec);
  ASSERT_GE(j, 0) << "fixture must place the join in-network";

  scenario::DynamicsSchedule schedule;
  schedule.FailAt(/*cycle=*/10, j).RecoverAt(/*cycle=*/25, j);
  scenario::ScenarioDriver driver(&exec.network(), &schedule);
  solo.medium.scheduler()->AttachFront(&driver);

  // Through the failure and its detection, up to just before the recovery.
  ASSERT_TRUE(solo.RunCycles(25).ok());
  ASSERT_EQ(driver.failures_applied(), 1);
  auto mid = exec.Stats();
  EXPECT_EQ(mid.failovers, 1u);  // one pair switched to the base
  const auto* pl = exec.FindPlacement(exec.pairs()[0]);
  ASSERT_NE(pl, nullptr);
  EXPECT_TRUE(pl->failed_over);
  EXPECT_TRUE(pl->at_base);
  // Both producers shipped (or are retrying) their window replay.
  uint64_t replay_bytes_mid = exec.network().stats().BytesByKind(
      net::MessageKind::kWindowTransfer);
  EXPECT_GT(replay_bytes_mid, 0u);

  // After the recovery the tree path heals: the retried replay gets
  // through and the base join produces results again.
  ASSERT_TRUE(solo.RunCycles(15).ok());
  ASSERT_EQ(driver.recoveries_applied(), 1);
  auto end = exec.Stats();
  EXPECT_GT(end.results, mid.results);
}

TEST(FailureRecoveryTest, ReplayPendingWhileProducerDownSurvivesChurn) {
  common::SequentialPhaseScope seq_phase;
  // Churn kills the producers themselves while their failover replay is
  // still pending (the dead join node blocks the tree path). The pending
  // replay must survive the producers' outage and ship once they recover.
  FailureFixture fx = FailureFixture::Make(/*seed=*/7);
  SoloQuery solo(fx.wl.get(), fx.opts);
  join::JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  NodeId j = InnetJoinNode(exec);
  ASSERT_GE(j, 0);
  const join::PairKey pair = exec.pairs()[0];

  scenario::DynamicsSchedule schedule;
  schedule.FailAt(/*cycle=*/10, j)
      .FailAt(/*cycle=*/13, pair.s)
      .FailAt(/*cycle=*/13, pair.t)
      .RecoverAt(/*cycle=*/25, j)
      .RecoverAt(/*cycle=*/25, pair.s)
      .RecoverAt(/*cycle=*/25, pair.t);
  scenario::ScenarioDriver driver(&exec.network(), &schedule);
  solo.medium.scheduler()->AttachFront(&driver);

  // Producers are down cycles 13..24: no replay traffic can flow.
  ASSERT_TRUE(solo.RunCycles(24).ok());
  auto mid = exec.Stats();
  EXPECT_GE(mid.failovers, 1u);
  uint64_t wt_mid =
      exec.network().stats().BytesByKind(net::MessageKind::kWindowTransfer);

  // After everything recovers, the retried replay ships and results resume.
  ASSERT_TRUE(solo.RunCycles(16).ok());
  uint64_t wt_end =
      exec.network().stats().BytesByKind(net::MessageKind::kWindowTransfer);
  EXPECT_GT(wt_end, wt_mid);
  EXPECT_GT(exec.Stats().results, mid.results);
}

TEST(FailureRecoveryTest, RecoveredRunStaysCloseToUnfailedBaseline) {
  common::SequentialPhaseScope seq_phase;
  // With both windows replayed and the route healed, the failure run loses
  // only the outage window — well over half the unfailed baseline's
  // results must survive a 15-cycle mid-run outage in a 40-cycle run.
  FailureFixture fx = FailureFixture::Make(/*seed=*/7);
  auto baseline_wl = *Workload::MakeQuery0(fx.topo.get(), {1.0, 1.0, 0.5},
                                           /*num_pairs=*/1, /*window=*/3, 7);

  SoloQuery solo(fx.wl.get(), fx.opts);
  join::JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  NodeId j = InnetJoinNode(exec);
  ASSERT_GE(j, 0);
  scenario::DynamicsSchedule schedule;
  schedule.FailAt(/*cycle=*/10, j).RecoverAt(/*cycle=*/25, j);
  scenario::ScenarioDriver driver(&exec.network(), &schedule);
  solo.medium.scheduler()->AttachFront(&driver);
  ASSERT_TRUE(solo.RunCycles(40).ok());

  auto baseline = core::RunExperiment(baseline_wl, fx.opts, 40);
  ASSERT_TRUE(baseline.ok());

  EXPECT_GT(baseline->results, 0u);
  EXPECT_GE(exec.results() * 2, baseline->results);
}

/// An algorithm that joins at a site other than the base.
struct SiteAlgorithm {
  const char* name;
  join::Algorithm algo;
  bool mesh;
};

void PrintTo(const SiteAlgorithm& a, std::ostream* os) { *os << a.name; }

/// The first placement's site that is neither the base nor the pair's S
/// producer, or -1.
NodeId FirstRemoteSite(const join::JoinExecutor& exec) {
  for (const auto& pl : exec.placements()) {
    const NodeId site = pl.at_base ? 0 : pl.join_node;
    if (site != 0 && site != pl.pair.s) return site;
  }
  return -1;
}

struct OutageRun {
  uint64_t late_results = 0;  ///< results of cycles 45-95
  uint64_t failovers = 0;
};

/// Runs `opts` on `wl` with `victim` failing at cycle 20 and recovering at
/// cycle 26.
OutageRun RunOutage(const Workload& wl, const join::ExecutorOptions& opts,
                    NodeId victim) {
  common::SequentialPhaseScope seq;
  SoloQuery solo(&wl, opts);
  EXPECT_TRUE(solo.exec.Initiate().ok());
  scenario::DynamicsSchedule schedule;
  schedule.FailAt(/*cycle=*/20, victim).RecoverAt(/*cycle=*/26, victim);
  scenario::ScenarioDriver driver(&solo.exec.network(), &schedule);
  solo.medium.scheduler()->AttachFront(&driver);
  EXPECT_TRUE(solo.RunCycles(45).ok());
  const uint64_t before = solo.exec.results();
  EXPECT_TRUE(solo.RunCycles(50).ok());
  return {solo.exec.results() - before, solo.exec.Stats().failovers};
}

class FailoverToBaseTest : public ::testing::TestWithParam<SiteAlgorithm> {};

TEST_P(FailoverToBaseTest, FailedOverPairsKeepJoiningAtTheBase) {
  common::SequentialPhaseScope seq_phase;
  // A pair whose site dies fails over to the base for good: once the
  // outage is over and the windows have turned over, every fresh sample of
  // both producers reaches the base, so the lossless run yields exactly
  // the results of Base under the same outage.
  const auto topo = *net::Topology::Random(100, 7.0, 42);
  const SelectivityParams sel{0.5, 0.5, 0.2};
  const auto wl = *Workload::MakeQuery1(&topo, sel, /*window=*/3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = GetParam().algo;
  opts.mesh_mode = GetParam().mesh;
  opts.features = join::InnetFeatures::None();
  opts.assumed = sel;
  opts.seed = 7;
  NodeId victim = -1;
  {
    SoloQuery probe(&wl, opts);
    ASSERT_TRUE(probe.exec.Initiate().ok());
    victim = FirstRemoteSite(probe.exec);
  }
  ASSERT_GT(victim, 0) << "some pair must join away from the base";

  const OutageRun run = RunOutage(wl, opts, victim);
  EXPECT_GT(run.failovers, 0u);
  join::ExecutorOptions base = opts;
  base.algorithm = join::Algorithm::kBase;
  const OutageRun want = RunOutage(wl, base, victim);
  EXPECT_GT(want.late_results, 0u);
  EXPECT_EQ(run.late_results, want.late_results);
}

INSTANTIATE_TEST_SUITE_P(
    SiteAlgorithms, FailoverToBaseTest,
    ::testing::Values(SiteAlgorithm{"Innet", join::Algorithm::kInnet, false},
                      SiteAlgorithm{"GHT", join::Algorithm::kGht, false},
                      SiteAlgorithm{"GHTMesh", join::Algorithm::kGht, true},
                      SiteAlgorithm{"Yang07", join::Algorithm::kYang07,
                                    false}),
    ::testing::PrintToStringParamName());

TEST(FailureRecoveryTest, FullFailureScenarioIsDeterministic) {
  common::SequentialPhaseScope seq_phase;
  // Churn + drift + a targeted kill, lossy radio: two identical runs must
  // agree bit for bit on every headline metric.
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, /*window=*/3, 7);
  scenario::DynamicsSchedule schedule =
      scenario::DynamicsSchedule::RandomChurn(topo, /*cycles=*/30,
                                              /*rate=*/0.004,
                                              /*down_cycles=*/8, /*seed=*/5);
  schedule.DriftLossTo(/*cycle=*/10, /*target=*/0.1, /*over_cycles=*/10);
  core::ExperimentOptions opts;
  opts.executor.algorithm = join::Algorithm::kInnet;
  opts.executor.features = join::InnetFeatures::Cmg();
  opts.executor.assumed = sel;
  opts.executor.loss_prob = 0.02;
  opts.executor.seed = 7;
  opts.dynamics = &schedule;

  auto a = core::RunExperiment(wl, opts, /*sampling_cycles=*/30);
  auto b = core::RunExperiment(wl, opts, /*sampling_cycles=*/30);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->total_bytes, b->total_bytes);
  EXPECT_EQ(a->total_messages, b->total_messages);
  EXPECT_EQ(a->results, b->results);
  EXPECT_EQ(a->failovers, b->failovers);
  EXPECT_EQ(a->migrations, b->migrations);
  EXPECT_EQ(a->avg_result_delay_cycles, b->avg_result_delay_cycles);
  EXPECT_EQ(a->max_result_delay_cycles, b->max_result_delay_cycles);
}

TEST(FailureRecoveryTest, FailingOneNodeLeavesOtherLinksLossStreamIntact) {
  common::SequentialPhaseScope seq_phase;
  // Regression for the short-circuited loss draw: every transmission
  // consumes exactly one draw whether or not its receiver is dead, so a run
  // that fails node F sees identical loss outcomes on untouched links as
  // the baseline run. max_retries=0 keeps the transmission schedules of the
  // two runs identical (one attempt per frame, delivered or not).
  auto topo = *net::Topology::Grid(2, 5, 100.0);
  auto path = topo.ShortestPath(0, 9);
  ASSERT_GE(path.size(), 3u);
  // Pick a victim F off the path, plus a live neighbor O to transmit to it.
  NodeId f = -1, o = -1;
  for (NodeId u = 1; u < topo.num_nodes(); ++u) {
    if (std::find(path.begin(), path.end(), u) != path.end()) continue;
    for (NodeId v : topo.neighbors(u)) {
      if (v != 0 && std::find(path.begin(), path.end(), v) == path.end()) {
        f = u;
        o = v;
        break;
      }
    }
    if (f >= 0) break;
  }
  ASSERT_GE(f, 0);
  ASSERT_GE(o, 0);

  auto run = [&](bool fail_f) {
    // Lambda bodies are separate functions to the analysis; re-assert.
    common::SequentialPhaseScope seq;
    net::NetworkOptions opts;
    opts.loss_prob = 0.5;
    opts.max_retries = 0;
    opts.seed = 1234;
    net::Network net(&topo, opts);
    if (fail_f) net.FailNode(f);
    std::vector<std::pair<int, NodeId>> deliveries;  // (round, at)
    int round = 0;
    net.set_delivery_handler([&](const net::Message&, NodeId at) {
      deliveries.push_back({round, at});
    });
    for (round = 0; round < 40; ++round) {
      net::Message m;
      m.kind = net::MessageKind::kData;
      m.mode = net::RoutingMode::kSourcePath;
      m.origin = 0;
      m.dest = 9;
      m.route = net.routes().InternPath(path);
      m.size_bytes = 8;
      EXPECT_TRUE(net.Submit(std::move(m)).ok());
      net::Message to_f;
      to_f.kind = net::MessageKind::kData;
      to_f.mode = net::RoutingMode::kSourcePath;
      to_f.origin = o;
      to_f.dest = f;
      to_f.route = net.routes().InternPath({o, f});
      to_f.size_bytes = 8;
      EXPECT_TRUE(net.Submit(std::move(to_f)).ok());
      net.StepUntilQuiet(100);
    }
    // Keep only the path traffic: deliveries at F differ by construction.
    std::vector<std::pair<int, NodeId>> on_path;
    for (const auto& d : deliveries) {
      if (d.second == 9) on_path.push_back(d);
    }
    uint64_t path_bytes = 0;
    for (NodeId u : path) path_bytes += net.stats().node(u).bytes_sent;
    return std::make_pair(on_path, path_bytes);
  };

  auto baseline = run(/*fail_f=*/false);
  auto failed = run(/*fail_f=*/true);
  EXPECT_FALSE(baseline.first.empty());
  EXPECT_EQ(baseline.first, failed.first);
  EXPECT_EQ(baseline.second, failed.second);
}

}  // namespace
}  // namespace aspen
