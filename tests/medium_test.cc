#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "join/medium.h"
#include "net/topology.h"
#include "query/parser.h"
#include "tests/reference_join.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using workload::SelectivityParams;
using workload::Workload;

TEST(SharedMediumTest, TwoQueriesProduceCorrectResults) {
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q2 = Workload::MakeQuery2(&*topo, sel, 3, 9);
  ASSERT_TRUE(q1.ok() && q2.ok());

  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = sel;
  auto r1 = medium.TryAddQuery(&*q1, opts);
  auto r2 = medium.TryAddQuery(&*q2, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  JoinExecutor* e1 = *r1;
  JoinExecutor* e2 = *r2;
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(30).ok());

  EXPECT_EQ(e1->results(), testing_util::ReferenceResults(*q1, 30));
  EXPECT_EQ(e2->results(), testing_util::ReferenceResults(*q2, 30));
  EXPECT_GT(medium.stats().TotalBytesSent(), 0u);
}

TEST(SharedMediumTest, ResultsMatchSoloExecution) {
  // Interleaving two queries on one medium must not change either query's
  // semantics — only the shared traffic accounting.
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto shared_wl = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto other_wl = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  auto solo_wl = *Workload::MakeQuery1(&*topo, sel, 3, 7);

  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  SharedMedium medium(&*topo, {});
  auto shared_admitted = medium.TryAddQuery(&shared_wl, opts);
  ASSERT_TRUE(shared_admitted.ok());
  JoinExecutor* shared_exec = *shared_admitted;
  ASSERT_TRUE(medium.TryAddQuery(&other_wl, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(25).ok());

  auto solo = core::RunExperiment(solo_wl, opts, 25);
  ASSERT_TRUE(solo.ok());
  EXPECT_EQ(shared_exec->results(), solo->results);
}

TEST(SharedMediumTest, CombinedTrafficAtLeastEachQuery) {
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q1_solo = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  auto solo = core::RunExperiment(q1_solo, opts, 20);
  ASSERT_TRUE(solo.ok());
  const uint64_t solo_bytes = solo->total_bytes;

  auto q2 = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  SharedMedium medium(&*topo, {});
  ASSERT_TRUE(medium.TryAddQuery(&q1, opts).ok());
  ASSERT_TRUE(medium.TryAddQuery(&q2, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(20).ok());
  EXPECT_GT(medium.stats().TotalBytesSent(), solo_bytes);
}

TEST(SharedMediumTest, CrossQueryMergingSavesHeaders) {
  // With combining enabled, data frames from different queries headed the
  // same way share link headers, so two queries on one medium cost less
  // than the sum of two isolated runs.
  auto topo = net::Topology::Random(80, 7.0, 11);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{1.0, 1.0, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;

  uint64_t sum_solo = 0;
  for (uint64_t seed : {7ULL, 9ULL}) {
    auto solo =
        core::RunExperiment(*Workload::MakeQuery1(&*topo, sel, 3, seed),
                            opts, 20);
    ASSERT_TRUE(solo.ok());
    sum_solo += solo->total_bytes;
  }

  auto a = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto b = *Workload::MakeQuery1(&*topo, sel, 3, 9);
  net::NetworkOptions shared_opts;
  shared_opts.enable_merging = true;
  SharedMedium medium(&*topo, shared_opts);
  ASSERT_TRUE(medium.TryAddQuery(&a, opts).ok());
  ASSERT_TRUE(medium.TryAddQuery(&b, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(20).ok());
  EXPECT_LT(medium.stats().TotalBytesSent(), sum_solo);
}

class UninitiatedQueryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UninitiatedQueryTest, RunFailsPreconditionUntilInitiated) {
  // An admitted query that was never initiated must fail the run with a
  // Status at every shard count and pipeline depth — not reach the shard
  // passes, which read state only initiation builds.
  const auto [shards, depth] = GetParam();
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  auto wl = *Workload::MakeQuery1(&*topo, {0.5, 0.5, 0.2}, 3, 7);
  MediumOptions mopts;
  mopts.knobs.shards = shards;
  mopts.knobs.pipeline_depth = depth;
  SharedMedium medium(&*topo, {}, mopts);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  auto admitted = medium.TryAddQuery(&wl, opts);
  ASSERT_TRUE(admitted.ok());
  JoinExecutor* exec = *admitted;
  Status st = medium.RunCycles(2);
  EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  EXPECT_EQ(medium.scheduler()->cycle(), 0);
  // Once initiated, the same medium runs; a second Initiate is a bug.
  ASSERT_TRUE(exec->Initiate().ok());
  EXPECT_TRUE(exec->Initiate().IsFailedPrecondition());
  ASSERT_TRUE(medium.RunCycles(2).ok());
  EXPECT_EQ(exec->results(), testing_util::ReferenceResults(wl, 2));
}

INSTANTIATE_TEST_SUITE_P(ShardsByDepth, UninitiatedQueryTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(1, 2)));

TEST(SharedMediumTest, EmptyMediumRejectsRun) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  EXPECT_FALSE(medium.RunCycles(1).ok());
}

TEST(SharedMediumTest, TryAddQueryRejectsMismatchedSampleInterval) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  auto wl = *Workload::MakeQuery1(&*topo, {0.5, 0.5, 0.2}, 3, 7);
  // Same query, slower sampling clock: incompatible with the first query's
  // scheduler.
  query::JoinQuery slow_query = wl.join_query();
  slow_query.window.sample_interval *= 2;
  auto slow = Workload::FromQuery(&*topo, slow_query, {0.5, 0.5, 0.2}, 9);
  ASSERT_TRUE(slow.ok());

  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  ASSERT_TRUE(medium.TryAddQuery(&wl, opts).ok());
  auto rejected = medium.TryAddQuery(&*slow, opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  // Nothing was registered by the failed call; the medium still runs.
  EXPECT_EQ(medium.num_queries(), 1);
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_TRUE(medium.RunCycles(1).ok());
}

TEST(SharedMediumTest, TryAddQueryRejectsForeignTopology) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  auto other_topo = net::Topology::Random(40, 7.0, 4);
  ASSERT_TRUE(topo.ok() && other_topo.ok());
  auto wl = *Workload::MakeQuery1(&*other_topo, {0.5, 0.5, 0.2}, 3, 7);
  SharedMedium medium(&*topo, {});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  auto rejected = medium.TryAddQuery(&wl, opts);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(medium.num_queries(), 0);
}

// ---- QuerySpec admission (SQL in, medium-owned workload) --------------------

constexpr char kAppendixBSql[] =
    "SELECT S.id, T.id, S.time FROM S, T [windowsize=3 sampleinterval=100] "
    "WHERE S.id < 25 AND hash(S.u) % 2 = 0 AND T.id > 50 AND "
    "hash(T.u) % 2 = 0 AND S.x = T.y + 5 AND S.u = T.u";

TEST(SharedMediumTest, QuerySpecAdmissionMatchesHandBuiltWorkload) {
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};

  SharedMedium::QuerySpec spec;
  spec.sql = kAppendixBSql;
  spec.params = sel;
  spec.seed = 7;
  spec.options.algorithm = Algorithm::kBase;
  spec.options.assumed = sel;

  SharedMedium medium(&*topo, {});
  auto admitted = medium.TryAddQuery(spec);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  JoinExecutor* exec = *admitted;
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(30).ok());

  // The spec path must be equivalent to parsing + building the workload by
  // hand: same query, params and seed → same reference result count.
  auto query = query::ParseQuery(kAppendixBSql);
  ASSERT_TRUE(query.ok());
  auto by_hand = Workload::FromQuery(&*topo, *std::move(query), sel, 7);
  ASSERT_TRUE(by_hand.ok());
  EXPECT_EQ(exec->results(), testing_util::ReferenceResults(*by_hand, 30));
  EXPECT_GT(exec->results(), 0u);
}

TEST(SharedMediumTest, QuerySpecBadSqlRejectedNothingRegistered) {
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  SharedMedium::QuerySpec spec;
  spec.sql = "SELECT FROM WHERE";  // not a join query
  auto rejected = medium.TryAddQuery(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(medium.num_queries(), 0);
  // The medium is unharmed: a valid spec still admits afterwards.
  spec.sql = kAppendixBSql;
  spec.params = {0.5, 0.5, 0.2};
  spec.options.assumed = spec.params;
  EXPECT_TRUE(medium.TryAddQuery(spec).ok());
  EXPECT_EQ(medium.num_queries(), 1);
}

TEST(SharedMediumTest, QuerySpecCnfBlowupRejectedNothingRegistered) {
  // An OR of 12 two-clause conjunctions expands to 4,096 CNF clauses, past
  // the analyzer's cap: rejected as a Status before any clause is built.
  auto topo = net::Topology::Random(40, 7.0, 3);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  std::string where;
  for (int i = 0; i < 12; ++i) {
    if (i > 0) where += " OR ";
    where += "(S.x = " + std::to_string(i) + " AND T.y = " +
             std::to_string(i) + ")";
  }
  SharedMedium::QuerySpec spec;
  spec.sql = "SELECT S.id, T.id, S.time FROM S, T "
             "[windowsize=3 sampleinterval=100] WHERE " + where;
  spec.params = {0.5, 0.5, 0.2};
  spec.options.assumed = spec.params;
  auto rejected = medium.TryAddQuery(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
  EXPECT_EQ(medium.num_queries(), 0);
}

TEST(SharedMediumTest, RemoveQueryFreesSpecOwnedWorkload) {
  auto topo = net::Topology::Random(60, 7.0, 5);
  ASSERT_TRUE(topo.ok());
  SharedMedium medium(&*topo, {});
  SharedMedium::QuerySpec spec;
  spec.sql = kAppendixBSql;
  spec.params = {0.5, 0.5, 0.2};
  spec.seed = 9;
  spec.options.algorithm = Algorithm::kBase;
  spec.options.assumed = spec.params;
  auto admitted = medium.TryAddQuery(spec);
  ASSERT_TRUE(admitted.ok());
  int id = (*admitted)->query_id();
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(5).ok());
  // Removal tears down the executor AND the medium-owned workload (ASan
  // would flag a leak or a dangling sample if either survived)...
  ASSERT_TRUE(medium.RemoveQuery(id).ok());
  EXPECT_EQ(medium.num_queries(), 0);
  // ...and the medium keeps serving: re-admit and run again.
  auto again = medium.TryAddQuery(spec);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_TRUE(medium.RunCycles(5).ok());
}

TEST(SharedMediumTest, DepartedRecordHoldsOnlyTopLoads) {
  // The ledger keeps every departed query's stats for the medium's
  // lifetime, so a record must not carry per-node scratch: its top loads
  // hold 15 entries, not one slot per node of the 10k grid.
  auto topo = net::Topology::Grid(100, 100, 2560.0);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery0(&*topo, sel, 20, 3, 7);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kBase;
  opts.assumed = sel;
  opts.mesh_mode = true;
  SharedMedium medium(&*topo, {});
  auto admitted = medium.TryAddQuery(&wl, opts);
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(3).ok());
  ASSERT_TRUE(medium.RemoveQuery((*admitted)->query_id()).ok());
  ASSERT_EQ(medium.ledger().size(), 1u);
  const std::vector<uint64_t>& top = medium.ledger()[0].stats.top_node_loads;
  EXPECT_EQ(top.size(), 15u);
  EXPECT_LE(top.capacity(), 15u);
  EXPECT_TRUE(std::is_sorted(top.rbegin(), top.rend()));
}

// ---- the shared routing substrate ------------------------------------------------

TEST(SharedMediumTest, InnetSubstrateSharedPerWorkloadTreesAndSummary) {
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto twin = *Workload::MakeQuery1(&*topo, sel, 3, 7);  // separate object
  ExecutorOptions innet;
  innet.algorithm = Algorithm::kInnet;
  innet.assumed = sel;
  ExecutorOptions cmg = innet;
  cmg.features = InnetFeatures::Cmg();
  ExecutorOptions two_trees = innet;
  two_trees.num_trees = 2;
  ExecutorOptions exact = innet;
  exact.summary_type = routing::SummaryType::kExact;
  ExecutorOptions base = innet;
  base.algorithm = Algorithm::kBase;

  SharedMedium medium(&*topo, {});
  std::vector<int> ids;
  auto admit = [&](const Workload* w, const ExecutorOptions& o) {
    auto exec = medium.TryAddQuery(w, o);
    ASSERT_TRUE(exec.ok());
    ASSERT_TRUE((*exec)->Initiate().ok());
    ids.push_back((*exec)->query_id());
  };
  admit(&wl, innet);
  EXPECT_EQ(medium.num_substrates(), 1);
  admit(&wl, cmg);  // same key, other algorithm options: reused
  EXPECT_EQ(medium.num_substrates(), 1);
  admit(&twin, innet);
  EXPECT_EQ(medium.num_substrates(), 2);
  admit(&wl, two_trees);
  EXPECT_EQ(medium.num_substrates(), 3);
  admit(&wl, exact);
  EXPECT_EQ(medium.num_substrates(), 4);
  admit(&wl, base);  // non-Innet queries use the medium's primary tree
  EXPECT_EQ(medium.num_substrates(), 4);
  ASSERT_TRUE(medium.RunCycles(5).ok());

  // The first holder's departure keeps the substrate alive for the second;
  // the last holder's departure frees it and drops its entry.
  ASSERT_TRUE(medium.RemoveQuery(ids[0]).ok());
  EXPECT_EQ(medium.num_substrates(), 4);
  ASSERT_TRUE(medium.RemoveQuery(ids[1]).ok());
  EXPECT_EQ(medium.num_substrates(), 3);
  for (size_t i = 2; i < ids.size(); ++i) {
    ASSERT_TRUE(medium.RemoveQuery(ids[i]).ok());
  }
  EXPECT_EQ(medium.num_substrates(), 0);
}

TEST(SharedMediumTest, ChurnReturnsSubstrateCountToBaseline) {
  // Residents hold their substrates for the whole run; waves of arrivals
  // over the residents' workloads reuse them, arrivals over a fresh
  // workload add one, and every wave's departure returns the count to the
  // residents' baseline.
  auto topo = net::Topology::Random(100, 7.0, 42);
  ASSERT_TRUE(topo.ok());
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto q1 = *Workload::MakeQuery1(&*topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery2(&*topo, sel, 3, 9);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cm();
  opts.assumed = sel;
  opts.knobs.tree_mode = common::TreeMode::kShared;
  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;
  SharedMedium medium(&*topo, {}, mopts);
  ASSERT_TRUE(medium.TryAddQuery(&q1, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  const int baseline = medium.num_substrates();
  EXPECT_EQ(baseline, 1);
  for (int wave = 0; wave < 3; ++wave) {
    auto fresh = *Workload::MakeQuery1(&*topo, sel, 3, 20 + wave);
    std::vector<int> arrivals;
    for (const Workload* w : {&q1, &q2, &q1, &fresh, &q2}) {
      auto exec = medium.TryAddQuery(w, opts);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE((*exec)->Initiate().ok());
      arrivals.push_back((*exec)->query_id());
    }
    EXPECT_EQ(medium.num_substrates(), baseline + 2);  // q2 and fresh
    ASSERT_TRUE(medium.RunCycles(4).ok());
    for (int id : arrivals) ASSERT_TRUE(medium.RemoveQuery(id).ok());
    EXPECT_EQ(medium.num_substrates(), baseline) << "wave " << wave;
    ASSERT_TRUE(medium.RunCycles(2).ok());
  }
}

}  // namespace
}  // namespace join
}  // namespace aspen
