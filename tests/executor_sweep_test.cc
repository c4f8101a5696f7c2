// Parameterized sweeps over the paper's selectivity grid: result agreement
// with the reference semantics for every (sigma_s:sigma_t, sigma_st) stage,
// and traffic-accounting invariants that must hold across configurations.

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

using workload::SelectivityParams;
using workload::Workload;

struct Stage {
  double sigma_s, sigma_t, sigma_st;
};

class SelectivitySweepTest : public ::testing::TestWithParam<Stage> {};

TEST_P(SelectivitySweepTest, CmgMatchesReferenceOnQuery1) {
  auto [ss, st, sst] = GetParam();
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{ss, st, sst};
  auto wl = Workload::MakeQuery1(&*topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = sel;
  auto stats = core::RunExperiment(*wl, opts, 30);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->results, testing_util::ReferenceResults(*wl, 30));
}

TEST_P(SelectivitySweepTest, RealizedSendRatesTrackTargets) {
  auto [ss, st, sst] = GetParam();
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{ss, st, sst};
  auto wl = Workload::MakeQuery1(&*topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  // Measure realized S-filter pass rate over many node-cycles.
  int64_t s_pass = 0, n = 0;
  for (net::NodeId node = 1; node < 20; ++node) {
    for (int c = 0; c < 400; ++c) {
      auto tup = wl->Sample(node, c);
      s_pass += wl->PassSFilter(node, tup, c);
      ++n;
    }
  }
  double realized = static_cast<double>(s_pass) / n;
  // Within one domain quantum of the target.
  double quantum = 1.0 / workload::CeilInverse(sst);
  EXPECT_NEAR(realized, ss, quantum + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, SelectivitySweepTest,
    ::testing::Values(Stage{0.1, 1.0, 0.2}, Stage{1.0 / 6, 0.5, 0.2},
                      Stage{0.5, 0.5, 0.2}, Stage{0.5, 1.0 / 6, 0.2},
                      Stage{1.0, 0.1, 0.2}, Stage{0.5, 0.5, 0.1},
                      Stage{0.5, 0.5, 0.05}, Stage{1.0, 1.0, 0.05}));

TEST(TrafficInvariantTest, TrafficGrowsMonotonicallyWithCycles) {
  auto topo = net::Topology::Random(80, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&*topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = sel;
  testing_util::SoloQuery solo(&*wl, opts);
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  uint64_t prev = exec.network().stats().TotalBytesSent();
  uint64_t prev_results = 0;
  for (int chunk = 0; chunk < 5; ++chunk) {
    ASSERT_TRUE(solo.RunCycles(10).ok());
    uint64_t now = exec.network().stats().TotalBytesSent();
    EXPECT_GT(now, prev);
    EXPECT_GE(exec.results(), prev_results);
    prev = now;
    prev_results = exec.results();
  }
}

TEST(TrafficInvariantTest, PerKindBytesSumToTotal) {
  auto topo = net::Topology::Random(80, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery1(&*topo, sel, 3, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.assumed = sel;
  testing_util::SoloQuery solo(&*wl, opts);
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(20).ok());
  const auto& stats = exec.network().stats();
  uint64_t by_kind = 0;
  for (int k = 0; k < static_cast<int>(net::MessageKind::kNumKinds); ++k) {
    by_kind += stats.BytesByKind(static_cast<net::MessageKind>(k));
  }
  EXPECT_EQ(by_kind, stats.TotalBytesSent());
  // Data + results dominate computation traffic for this configuration.
  EXPECT_GT(stats.BytesByKind(net::MessageKind::kData), 0u);
  EXPECT_GT(stats.BytesByKind(net::MessageKind::kJoinResult), 0u);
}

TEST(TrafficInvariantTest, SentEqualsReceivedPlusLosses) {
  // Loss-free: every byte sent by someone is received by someone.
  auto topo = net::Topology::Random(80, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = Workload::MakeQuery2(&*topo, sel, 1, 7);
  ASSERT_TRUE(wl.ok());
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;
  testing_util::SoloQuery solo(&*wl, opts);
  JoinExecutor& exec = solo.exec;
  ASSERT_TRUE(exec.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(20).ok());
  const auto& stats = exec.network().stats();
  uint64_t sent = 0, received = 0;
  for (net::NodeId u = 0; u < topo->num_nodes(); ++u) {
    sent += stats.node(u).bytes_sent;
    received += stats.node(u).bytes_received;
  }
  EXPECT_EQ(sent, received);
}

TEST(WindowSizeSweepTest, LargerWindowsNeverLoseResults) {
  // Monotonicity: enlarging the join window can only add matches.
  auto topo = net::Topology::Random(80, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  uint64_t prev = 0;
  for (int w : {1, 2, 4, 8}) {
    auto wl = Workload::MakeQuery1(&*topo, sel, w, 7);
    ASSERT_TRUE(wl.ok());
    ExecutorOptions opts;
    opts.algorithm = Algorithm::kBase;
    opts.assumed = sel;
    auto stats = core::RunExperiment(*wl, opts, 30);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->results, testing_util::ReferenceResults(*wl, 30));
    EXPECT_GE(stats->results, prev);
    prev = stats->results;
  }
}

TEST(TopologySweepTest, AllDensitiesExecuteCorrectly) {
  for (auto kind : {net::TopologyKind::kSparseRandom,
                    net::TopologyKind::kDenseRandom,
                    net::TopologyKind::kGrid}) {
    auto topo = net::Topology::Make(kind, 100, 31);
    ASSERT_TRUE(topo.ok());
    SelectivityParams sel{0.5, 0.5, 0.2};
    auto wl = Workload::MakeQuery1(&*topo, sel, 3, 7);
    ASSERT_TRUE(wl.ok());
    ExecutorOptions opts;
    opts.algorithm = Algorithm::kInnet;
    opts.features = InnetFeatures::Cmpg();
    opts.assumed = sel;
    auto stats = core::RunExperiment(*wl, opts, 25);
    ASSERT_TRUE(stats.ok()) << net::TopologyKindName(kind);
    EXPECT_EQ(stats->results, testing_util::ReferenceResults(*wl, 25))
        << net::TopologyKindName(kind);
  }
}

}  // namespace
}  // namespace join
}  // namespace aspen
