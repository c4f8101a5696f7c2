// Shard-equivalence property: a run's observable outcome — every per-node
// traffic counter, the per-kind and per-query breakdowns, results, delays,
// migrations and failovers — is byte-identical for every shard count. The
// shard count only decides which thread executes which node range; the
// exchange phases merge all cross-shard interactions in canonical content
// order (net/network.h, sim/cycle_scheduler.h).
//
// The property is exercised across topologies, algorithms, lossy radios and
// scripted dynamics (churn, kills, loss drift), i.e. including the paths
// where frames retransmit, drop mid-flight, fail over and replay windows.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "join/executor.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "tests/solo_query.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using workload::SelectivityParams;
using workload::Workload;

/// Every observable quantity of a finished run.
struct RunDigest {
  std::vector<net::NodeTraffic> per_node;
  std::vector<uint64_t> by_kind_bytes;
  std::vector<uint64_t> by_kind_messages;
  uint64_t query_bytes = 0;
  uint64_t query_messages = 0;
  uint64_t results = 0;
  double avg_delay = 0;
  double max_delay = 0;
  uint64_t migrations = 0;
  uint64_t failovers = 0;
};

RunDigest DigestOf(const join::JoinExecutor& exec) {
  RunDigest d;
  const net::TrafficStats& s = exec.network().stats();
  for (net::NodeId id = 0; id < s.num_nodes(); ++id) {
    d.per_node.push_back(s.node(id));
  }
  for (int k = 0; k < static_cast<int>(net::MessageKind::kNumKinds); ++k) {
    d.by_kind_bytes.push_back(s.BytesByKind(static_cast<net::MessageKind>(k)));
    d.by_kind_messages.push_back(
        s.MessagesByKind(static_cast<net::MessageKind>(k)));
  }
  d.query_bytes = s.QueryBytesSent(exec.query_id());
  d.query_messages = s.QueryMessagesSent(exec.query_id());
  join::RunStats rs = exec.Stats();
  d.results = rs.results;
  d.avg_delay = rs.avg_result_delay_cycles;
  d.max_delay = rs.max_result_delay_cycles;
  d.migrations = rs.migrations;
  d.failovers = rs.failovers;
  return d;
}

void ExpectIdentical(const RunDigest& a, const RunDigest& b, int shards) {
  ASSERT_EQ(a.per_node.size(), b.per_node.size());
  for (size_t i = 0; i < a.per_node.size(); ++i) {
    EXPECT_EQ(a.per_node[i].bytes_sent, b.per_node[i].bytes_sent)
        << "node " << i << " shards=" << shards;
    EXPECT_EQ(a.per_node[i].bytes_received, b.per_node[i].bytes_received)
        << "node " << i << " shards=" << shards;
    EXPECT_EQ(a.per_node[i].messages_sent, b.per_node[i].messages_sent)
        << "node " << i << " shards=" << shards;
    EXPECT_EQ(a.per_node[i].messages_received, b.per_node[i].messages_received)
        << "node " << i << " shards=" << shards;
  }
  EXPECT_EQ(a.by_kind_bytes, b.by_kind_bytes) << "shards=" << shards;
  EXPECT_EQ(a.by_kind_messages, b.by_kind_messages) << "shards=" << shards;
  EXPECT_EQ(a.query_bytes, b.query_bytes) << "shards=" << shards;
  EXPECT_EQ(a.query_messages, b.query_messages) << "shards=" << shards;
  EXPECT_EQ(a.results, b.results) << "shards=" << shards;
  EXPECT_EQ(a.avg_delay, b.avg_delay) << "shards=" << shards;
  EXPECT_EQ(a.max_delay, b.max_delay) << "shards=" << shards;
  EXPECT_EQ(a.migrations, b.migrations) << "shards=" << shards;
  EXPECT_EQ(a.failovers, b.failovers) << "shards=" << shards;
}

struct Scenario {
  join::ExecutorOptions opts;
  const scenario::DynamicsSchedule* dynamics = nullptr;
  int cycles = 30;
};

RunDigest RunAtShards(const Workload& wl, const Scenario& sc, int shards) {
  join::ExecutorOptions opts = sc.opts;
  opts.knobs.shards = shards;
  testing_util::SoloQuery solo(&wl, opts);
  EXPECT_TRUE(solo.exec.Initiate().ok());
  std::unique_ptr<scenario::ScenarioDriver> driver;
  if (sc.dynamics != nullptr) {
    driver = std::make_unique<scenario::ScenarioDriver>(
        &solo.medium.network(), sc.dynamics);
    solo.medium.scheduler()->AttachFront(driver.get());
  }
  EXPECT_TRUE(solo.RunCycles(sc.cycles).ok());
  return DigestOf(solo.exec);
}

void CheckShardInvariance(const Workload& wl, const Scenario& sc) {
  RunDigest base = RunAtShards(wl, sc, 1);
  for (int shards : {2, 3, 8}) {
    RunDigest d = RunAtShards(wl, sc, shards);
    ExpectIdentical(base, d, shards);
  }
}

TEST(ShardEquivalenceTest, InnetMeshLossless) {
  auto topo = *net::Topology::Grid(10, 12, 300.0);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery0(&topo, sel, /*num_pairs=*/30, /*window=*/3,
                                  /*seed=*/7);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kInnet;
  sc.opts.features = join::InnetFeatures::Cm();
  sc.opts.assumed = sel;
  sc.opts.mesh_mode = true;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, InnetLossyRadio) {
  // Retransmissions draw from per-sender streams; a lossy radio is where a
  // shard-dependent draw order would show immediately.
  auto topo = *net::Topology::Random(90, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, /*window=*/3, /*seed=*/7);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kInnet;
  sc.opts.features = join::InnetFeatures::Cmg();
  sc.opts.assumed = sel;
  sc.opts.loss_prob = 0.05;
  sc.opts.seed = 3;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, Yang07RootRelay) {
  // Yang+07's root relays S data from inside a delivery handler — the
  // handler-initiated submissions must keep their sequential ids and order.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.1};
  auto wl = *Workload::MakeQuery1(&topo, sel, /*window=*/3, /*seed=*/5);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kYang07;
  sc.opts.assumed = sel;
  sc.opts.loss_prob = 0.02;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, FailureChurnAndDriftDynamics) {
  // Churn + loss drift + a lossy radio: drops, failovers and window
  // replays (handler submissions during the transmit phase) included.
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, /*window=*/3, /*seed=*/7);
  scenario::DynamicsSchedule schedule =
      scenario::DynamicsSchedule::RandomChurn(topo, /*cycles=*/30,
                                              /*rate=*/0.004,
                                              /*down_cycles=*/8, /*seed=*/5);
  schedule.DriftLossTo(/*cycle=*/10, /*target=*/0.1, /*over_cycles=*/10);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kInnet;
  sc.opts.features = join::InnetFeatures::Cmg();
  sc.opts.assumed = sel;
  sc.opts.loss_prob = 0.02;
  sc.opts.seed = 7;
  sc.dynamics = &schedule;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, TargetedJoinNodeKill) {
  // Kill one in-network join node mid-run: the failover replay path
  // (drop-handler detection, window transfer, at-base continuation).
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{1.0, 1.0, 0.1};
  auto wl = *Workload::MakeQuery0(&topo, sel, /*num_pairs=*/4, /*window=*/2,
                                  /*seed=*/9);
  // Find an in-network placement to kill (as bench_fig14 does): run a probe
  // executor first.
  join::ExecutorOptions probe_opts;
  probe_opts.algorithm = join::Algorithm::kInnet;
  probe_opts.assumed = {1.0, 1.0, 0.02};
  testing_util::SoloQuery probe(&wl, probe_opts);
  ASSERT_TRUE(probe.exec.Initiate().ok());
  scenario::DynamicsSchedule schedule;
  for (const auto& pl : probe.exec.placements()) {
    if (!pl.at_base && pl.join_node != pl.pair.s && pl.join_node != pl.pair.t) {
      schedule.FailAt(/*cycle=*/12, pl.join_node);
    }
  }
  Scenario sc;
  sc.opts = probe_opts;
  sc.opts.loss_prob = 0.02;
  sc.dynamics = &schedule;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, GhtMeshMode) {
  auto topo = *net::Topology::Grid(9, 9, 300.0);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery0(&topo, sel, /*num_pairs=*/20, /*window=*/3,
                                  /*seed=*/13);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kGht;
  sc.opts.assumed = sel;
  sc.opts.mesh_mode = true;
  sc.opts.loss_prob = 0.03;
  CheckShardInvariance(wl, sc);
}

TEST(ShardEquivalenceTest, ShardCountExceedingNodesClamps) {
  auto topo = *net::Topology::Grid(3, 3, 300.0);
  SelectivityParams sel{1.0, 1.0, 0.5};
  auto wl = *Workload::MakeQuery0(&topo, sel, /*num_pairs=*/2, /*window=*/2,
                                  /*seed=*/3);
  Scenario sc;
  sc.opts.algorithm = join::Algorithm::kInnet;
  sc.opts.assumed = sel;
  sc.opts.mesh_mode = true;
  sc.cycles = 10;
  RunDigest base = RunAtShards(wl, sc, 1);
  RunDigest d = RunAtShards(wl, sc, 64);  // clamped to 9 nodes
  ExpectIdentical(base, d, 64);
}

}  // namespace
}  // namespace aspen
