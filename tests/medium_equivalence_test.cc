// Co-residency on a SharedMedium: with packet merging disabled and a
// lossless radio, hosting several queries on one medium must not change
// any query's behavior — per-query traffic (isolated by the TrafficStats
// query dimension) and results must be byte-for-byte identical to the same
// query run alone (core::RunExperiment, itself a one-query medium; the
// golden-run test pins that path under loss and merging too).

#include <gtest/gtest.h>

#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "query/parser.h"
#include "tests/reference_join.h"
#include "tests/solo_query.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using workload::SelectivityParams;
using workload::Workload;

struct SoloVsShared {
  RunStats solo1, solo2;
  RunStats shared1, shared2;
  uint64_t medium_total_bytes = 0;
};

SoloVsShared RunBoth(Algorithm algo, InnetFeatures features, int cycles) {
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  ExecutorOptions opts;
  opts.algorithm = algo;
  opts.features = features;
  opts.assumed = sel;

  SoloVsShared out;
  auto solo1 = core::RunExperiment(*Workload::MakeQuery1(&topo, sel, 3, 7),
                                   opts, cycles);
  auto solo2 = core::RunExperiment(*Workload::MakeQuery2(&topo, sel, 3, 9),
                                   opts, cycles);
  EXPECT_TRUE(solo1.ok() && solo2.ok());
  out.solo1 = *solo1;
  out.solo2 = *solo2;
  auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery2(&topo, sel, 3, 9);
  SharedMedium medium(&topo, {});  // merging disabled, lossless
  auto r1 = medium.TryAddQuery(&q1, opts);
  auto r2 = medium.TryAddQuery(&q2, opts);
  EXPECT_TRUE(r1.ok() && r2.ok());
  JoinExecutor* e1 = *r1;
  JoinExecutor* e2 = *r2;
  EXPECT_TRUE(medium.InitiateAll().ok());
  EXPECT_TRUE(medium.RunCycles(cycles).ok());
  out.shared1 = e1->Stats();
  out.shared2 = e2->Stats();
  out.medium_total_bytes = medium.stats().TotalBytesSent();
  return out;
}

void ExpectPerQueryIdentical(const RunStats& solo, const RunStats& shared) {
  // Alone on its medium a query is all the traffic, so the solo run's
  // query-isolated counters equal its totals; beside a co-tenant the query
  // dimension must isolate exactly the same traffic.
  EXPECT_EQ(solo.query_bytes, solo.total_bytes);
  EXPECT_EQ(solo.query_messages, solo.total_messages);
  EXPECT_EQ(shared.query_bytes, solo.total_bytes);
  EXPECT_EQ(shared.query_messages, solo.total_messages);
  EXPECT_EQ(shared.results, solo.results);
  EXPECT_DOUBLE_EQ(shared.avg_result_delay_cycles,
                   solo.avg_result_delay_cycles);
  EXPECT_DOUBLE_EQ(shared.max_result_delay_cycles,
                   solo.max_result_delay_cycles);
  EXPECT_EQ(shared.migrations, solo.migrations);
  EXPECT_EQ(shared.failovers, solo.failovers);
  EXPECT_EQ(shared.sampling_cycles, solo.sampling_cycles);
}

TEST(MediumEquivalenceTest, BasePerQueryStatsMatchSoloRuns) {
  SoloVsShared r = RunBoth(Algorithm::kBase, {}, 25);
  ExpectPerQueryIdentical(r.solo1, r.shared1);
  ExpectPerQueryIdentical(r.solo2, r.shared2);
  // Without merging, medium-wide traffic is exactly the sum of the queries.
  EXPECT_EQ(r.medium_total_bytes,
            r.solo1.total_bytes + r.solo2.total_bytes);
}

TEST(MediumEquivalenceTest, InnetPerQueryStatsMatchSoloRuns) {
  // Exploration and nominations run on the computed plane (charged via the
  // ambient query scope), so even Innet initiation must attribute exactly.
  SoloVsShared r = RunBoth(Algorithm::kInnet, InnetFeatures::None(), 25);
  ExpectPerQueryIdentical(r.solo1, r.shared1);
  ExpectPerQueryIdentical(r.solo2, r.shared2);
  EXPECT_EQ(r.medium_total_bytes,
            r.solo1.total_bytes + r.solo2.total_bytes);
}

TEST(MediumEquivalenceTest, YangPerQueryStatsMatchSoloRuns) {
  SoloVsShared r = RunBoth(Algorithm::kYang07, {}, 25);
  ExpectPerQueryIdentical(r.solo1, r.shared1);
  ExpectPerQueryIdentical(r.solo2, r.shared2);
}

TEST(MediumEquivalenceTest, StaggeredInitiationMatchesSoloRunAtSameCycle) {
  // Service-mode admission: a query added at cycle N on a running medium
  // must behave exactly like a solo run whose clock was seeked to N —
  // sampling is a pure function of the cycle number, and on a lossless
  // non-merging medium the co-tenant query cannot interfere.
  const int kStagger = 12;
  const int kTail = 20;
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.assumed = sel;

  RunStats solo;
  {
    auto wl = *Workload::MakeQuery2(&topo, sel, 3, 9);
    testing_util::SoloQuery run(&wl, opts);
    ASSERT_TRUE(run.exec.Initiate().ok());
    run.medium.scheduler()->SeekTo(kStagger);
    ASSERT_TRUE(run.RunCycles(kTail).ok());
    solo = run.exec.Stats();
  }

  auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery2(&topo, sel, 3, 9);
  SharedMedium medium(&topo, {});  // merging disabled, lossless
  ASSERT_TRUE(medium.TryAddQuery(&q1, opts).ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(kStagger).ok());
  // Mid-run admission on the shared clock.
  auto late_admitted = medium.TryAddQuery(&q2, opts);
  ASSERT_TRUE(late_admitted.ok());
  JoinExecutor* late = *late_admitted;
  ASSERT_TRUE(late->Initiate().ok());
  EXPECT_EQ(medium.scheduler()->cycle(), kStagger);
  ASSERT_TRUE(medium.RunCycles(kTail).ok());

  RunStats shared = late->Stats();
  EXPECT_EQ(shared.query_bytes, solo.total_bytes);
  EXPECT_EQ(shared.query_messages, solo.total_messages);
  EXPECT_EQ(shared.results, solo.results);
  EXPECT_DOUBLE_EQ(shared.avg_result_delay_cycles,
                   solo.avg_result_delay_cycles);
  EXPECT_DOUBLE_EQ(shared.max_result_delay_cycles,
                   solo.max_result_delay_cycles);
  EXPECT_EQ(shared.sampling_cycles, solo.sampling_cycles);
}

TEST(MediumEquivalenceTest, RemoveQueryReturnsOccupancyToBaseline) {
  // Teardown: removing a query must release everything it pinned in the
  // shared data plane — after the next epoch-safe sweep, live route and
  // payload occupancy return exactly to the remaining query's baseline.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cm();  // exercise multicast routes too
  opts.assumed = sel;

  auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery2(&topo, sel, 3, 9);
  SharedMedium medium(&topo, {});
  auto r1 = medium.TryAddQuery(&q1, opts);
  ASSERT_TRUE(r1.ok());
  JoinExecutor* e1 = *r1;
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_TRUE(medium.RunCycles(10).ok());
  const net::RouteTable& routes = medium.network().routes();
  const size_t base_routes = routes.live_paths();
  const size_t base_mcasts = routes.live_multicasts();
  ASSERT_GT(base_routes, 0u);

  auto r2 = medium.TryAddQuery(&q2, opts);
  ASSERT_TRUE(r2.ok());
  JoinExecutor* e2 = *r2;
  const int q2_id = e2->query_id();
  ASSERT_TRUE(e2->Initiate().ok());
  ASSERT_TRUE(medium.RunCycles(10).ok());
  EXPECT_GT(routes.live_paths(), base_routes);
  const uint64_t q2_results = e2->results();

  ASSERT_TRUE(medium.RemoveQuery(q2_id).ok());
  EXPECT_EQ(medium.num_queries(), 1);
  EXPECT_EQ(medium.FindExecutor(q2_id), nullptr);
  // A second removal of the same id is a clean error.
  EXPECT_TRUE(medium.RemoveQuery(q2_id).IsNotFound());
  // The ledger retains the departed query's finalized metrics.
  ASSERT_EQ(medium.ledger().size(), 1u);
  EXPECT_EQ(medium.ledger()[0].query_id, q2_id);
  EXPECT_EQ(medium.ledger()[0].stats.results, q2_results);
  EXPECT_EQ(medium.ledger()[0].admitted_cycle, 10);
  EXPECT_EQ(medium.ledger()[0].removed_cycle, 20);

  // Run on: the sweep fires at the next quiet epoch boundary and q1 keeps
  // executing undisturbed.
  ASSERT_TRUE(medium.RunCycles(5).ok());
  EXPECT_EQ(routes.live_paths(), base_routes);
  EXPECT_EQ(routes.live_multicasts(), base_mcasts);
  EXPECT_EQ(medium.network().payloads().live(), 0u);
  EXPECT_EQ(medium.network().frames_in_flight(), 0);
  EXPECT_GT(e1->results(), 0u);

  // The freed id is recycled once its traffic has drained, with counters
  // zeroed for the new tenant.
  auto q3 = *Workload::MakeQuery2(&topo, sel, 3, 13);
  auto r3 = medium.TryAddQuery(&q3, opts);
  ASSERT_TRUE(r3.ok());
  JoinExecutor* e3 = *r3;
  EXPECT_EQ(e3->query_id(), q2_id);
  EXPECT_EQ(medium.stats().QueryBytesSent(q2_id), 0u);
  ASSERT_TRUE(e3->Initiate().ok());
  ASSERT_TRUE(medium.RunCycles(3).ok());
  EXPECT_GT(medium.stats().QueryBytesSent(q2_id), 0u);
}

TEST(MediumEquivalenceTest, SharedPlacementAttachMatchesSoloReference) {
  // tree_mode=shared: a second identical query attaches to the first's
  // placements (one evaluation, fanned out) instead of running its own.
  // Both queries must report exactly the results of an unshared solo run
  // of the same workload — sharing changes traffic, never answers.
  const int kCycles = 25;
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cm();
  opts.assumed = sel;
  opts.knobs.tree_mode = common::TreeMode::kShared;

  auto solo_run =
      core::RunExperiment(*Workload::MakeQuery1(&topo, sel, 3, 7), opts,
                          kCycles);
  ASSERT_TRUE(solo_run.ok());
  const RunStats solo = *solo_run;

  auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto q2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;
  SharedMedium medium(&topo, {}, mopts);
  auto r1 = medium.TryAddQuery(&q1, opts);
  auto r2 = medium.TryAddQuery(&q2, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_GT(medium.num_shared_placements(), 0);
  ASSERT_TRUE(medium.RunCycles(kCycles).ok());

  const RunStats s1 = (*r1)->Stats();
  const RunStats s2 = (*r2)->Stats();
  EXPECT_EQ(s1.results, solo.results);
  EXPECT_EQ(s2.results, solo.results);
  EXPECT_DOUBLE_EQ(s1.avg_result_delay_cycles, solo.avg_result_delay_cycles);
  EXPECT_DOUBLE_EQ(s2.avg_result_delay_cycles, solo.avg_result_delay_cycles);
  EXPECT_EQ(s1.sampling_cycles, solo.sampling_cycles);
  EXPECT_EQ(s2.sampling_cycles, solo.sampling_cycles);
  // The subscriber's own traffic is a fraction of a full solo run: its
  // data plane is suppressed, results arrive via the owner's evaluation.
  EXPECT_LT(s2.query_bytes, solo.total_bytes);
  // Medium-wide, sharing beats two independent tenants.
  EXPECT_LT(medium.stats().TotalBytesSent(), 2 * solo.total_bytes);
}

TEST(MediumEquivalenceTest, SharedPlacementDetachPromotesSubscriber) {
  // Owner departure mid-run: the smallest subscriber adopts the placement
  // (geometry, routes, window state) and continues producing exactly the
  // results a never-shared solo run would have over the same cycles. The
  // promoted producers rebuild a multicast tree only when the query
  // multicasts: without multicast the promotion sends no tree update.
  const int kHead = 10, kTail = 15;
  auto topo = *net::Topology::Random(80, 7.0, 11);
  SelectivityParams sel{0.5, 0.5, 0.2};
  for (const InnetFeatures features :
       {InnetFeatures::Cm(), InnetFeatures::None()}) {
    SCOPED_TRACE(AlgorithmName(Algorithm::kInnet, features));
    ExecutorOptions opts;
    opts.algorithm = Algorithm::kInnet;
    opts.features = features;
    opts.assumed = sel;
    opts.knobs.tree_mode = common::TreeMode::kShared;

    auto solo_run =
        core::RunExperiment(*Workload::MakeQuery1(&topo, sel, 3, 7), opts,
                            kHead + kTail);
    ASSERT_TRUE(solo_run.ok());
    const RunStats solo = *solo_run;

    auto q1 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    auto q2 = *Workload::MakeQuery1(&topo, sel, 3, 7);
    MediumOptions mopts;
    mopts.knobs.tree_mode = common::TreeMode::kShared;
    SharedMedium medium(&topo, {}, mopts);
    auto r1 = medium.TryAddQuery(&q1, opts);
    auto r2 = medium.TryAddQuery(&q2, opts);
    ASSERT_TRUE(r1.ok() && r2.ok());
    JoinExecutor* owner = *r1;
    JoinExecutor* sub = *r2;
    ASSERT_TRUE(medium.InitiateAll().ok());
    ASSERT_GT(medium.num_shared_placements(), 0);
    ASSERT_TRUE(medium.RunCycles(kHead).ok());

    // The first-admitted query owns every shared placement; remove it.
    ASSERT_TRUE(medium.RemoveQuery(owner->query_id()).ok());
    EXPECT_EQ(medium.num_shared_placements(), 0);
    ASSERT_TRUE(medium.RunCycles(kTail).ok());
    if (!features.multicast) {
      EXPECT_EQ(medium.stats().BytesByKind(net::MessageKind::kMulticastUpdate),
                0u);
    }

    const RunStats after = sub->Stats();
    EXPECT_EQ(after.results, solo.results);
    EXPECT_DOUBLE_EQ(after.avg_result_delay_cycles,
                     solo.avg_result_delay_cycles);
    EXPECT_EQ(after.sampling_cycles, solo.sampling_cycles);
  }
}

TEST(MediumEquivalenceTest, PromotedOwnerReoptimizesLosslessly) {
  // A promoted owner's pairs belong to no MPO group: under Innet-cmg with
  // the instant policy they take the pairwise decision, and the moves made
  // after promotion lose no result.
  const int kHead = 10, kTail = 50;
  auto topo = *net::Topology::Random(100, 7.0, 42);
  const SelectivityParams before{0.1, 1.0, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, before, 3, 7);
  wl.SetGlobalSwitch(20, {1.0, 0.1, 0.2});
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = InnetFeatures::Cmg();
  opts.assumed = before;
  opts.knobs.tree_mode = common::TreeMode::kShared;
  opts.knobs.UsePaperLearning();
  opts.knobs.reopt_interval = 5;

  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;
  SharedMedium medium(&topo, {}, mopts);
  auto owner = medium.TryAddQuery(&wl, opts);
  auto sub = medium.TryAddQuery(&wl, opts);
  ASSERT_TRUE(owner.ok() && sub.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  ASSERT_GT(medium.num_shared_placements(), 0);
  ASSERT_TRUE(medium.RunCycles(kHead).ok());
  ASSERT_TRUE(medium.RemoveQuery((*owner)->query_id()).ok());
  ASSERT_TRUE(medium.RunCycles(kTail).ok());

  const RunStats st = (*sub)->Stats();
  EXPECT_GT(st.migrations, 0u);
  EXPECT_EQ(st.results, testing_util::ReferenceResults(wl, kHead + kTail));
}

// ---- one Workload object, one shared routing substrate ---------------------------

/// Every RunStats field, compared exactly.
void ExpectSameRunStats(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.base_bytes, b.base_bytes);
  EXPECT_EQ(a.max_node_bytes, b.max_node_bytes);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.base_messages, b.base_messages);
  EXPECT_EQ(a.max_node_messages, b.max_node_messages);
  EXPECT_EQ(a.initiation_bytes, b.initiation_bytes);
  EXPECT_EQ(a.computation_bytes, b.computation_bytes);
  EXPECT_EQ(a.query_bytes, b.query_bytes);
  EXPECT_EQ(a.query_messages, b.query_messages);
  EXPECT_EQ(a.top_node_loads, b.top_node_loads);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.avg_result_delay_cycles, b.avg_result_delay_cycles);
  EXPECT_EQ(a.max_result_delay_cycles, b.max_result_delay_cycles);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.reopt_passes, b.reopt_passes);
  EXPECT_EQ(a.planned_migrations, b.planned_migrations);
  EXPECT_EQ(a.init_latency_cycles, b.init_latency_cycles);
  EXPECT_EQ(a.sampling_cycles, b.sampling_cycles);
}

class SubstrateReuseTest
    : public ::testing::TestWithParam<common::TreeMode> {
 protected:
  static constexpr int kCycles = 25;

  /// Two Innet variants that differ in algorithm options (so they never
  /// share a placement) but not in substrate key: same tree count and
  /// summary type. The second starts from wrong estimates and learns, so
  /// its mid-run migrations read depths and tree paths from the medium's
  /// primary tree.
  std::vector<ExecutorOptions> Options() const {
    ExecutorOptions a;
    a.algorithm = Algorithm::kInnet;
    a.assumed = {0.5, 0.5, 0.2};
    a.knobs.tree_mode = GetParam();
    ExecutorOptions b = a;
    b.features.group_opt = true;
    b.assumed = {0.05, 0.9, 0.2};
    b.knobs.UsePaperLearning();
    b.knobs.reopt_interval = 5;
    return {a, b};
  }

  /// Runs both variants co-resident on one medium over `workloads[i]`.
  std::vector<RunStats> RunCoResident(
      const net::Topology& topo,
      const std::vector<const Workload*>& workloads, int* substrates) const {
    MediumOptions mopts;
    mopts.knobs.tree_mode = GetParam();
    SharedMedium medium(&topo, {}, mopts);  // merging disabled, lossless
    const std::vector<ExecutorOptions> opts = Options();
    std::vector<JoinExecutor*> execs;
    for (size_t i = 0; i < opts.size(); ++i) {
      auto admitted = medium.TryAddQuery(workloads[i], opts[i]);
      EXPECT_TRUE(admitted.ok());
      execs.push_back(*admitted);
    }
    EXPECT_TRUE(medium.InitiateAll().ok());
    EXPECT_EQ(medium.num_shared_placements(), 0);
    *substrates = medium.num_substrates();
    EXPECT_TRUE(medium.RunCycles(kCycles).ok());
    std::vector<RunStats> out;
    for (JoinExecutor* e : execs) out.push_back(e->Stats());
    return out;
  }
};

TEST_P(SubstrateReuseTest, CoResidentQueriesOverOneWorkloadMatchSoloRuns) {
  auto topo = *net::Topology::Random(80, 7.0, 11);
  const SelectivityParams sel{0.5, 0.5, 0.2};
  const std::vector<ExecutorOptions> opts = Options();

  std::vector<RunStats> solo;
  for (const ExecutorOptions& o : opts) {
    auto run = core::RunExperiment(*Workload::MakeQuery1(&topo, sel, 3, 7), o,
                                   kCycles);
    ASSERT_TRUE(run.ok());
    solo.push_back(*run);
  }
  ASSERT_GT(solo[1].migrations, 0u);

  // One Workload object: the second admission reuses the first's
  // substrate.
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  int substrates = 0;
  const std::vector<RunStats> reused =
      RunCoResident(topo, {&wl, &wl}, &substrates);
  EXPECT_EQ(substrates, 1);

  // Each query's own counters equal its solo run; medium-wide traffic is
  // exactly the sum of the two solo runs (no merging, no loss).
  for (size_t i = 0; i < solo.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    RunStats want = solo[i];
    RunStats got = reused[i];
    EXPECT_EQ(got.query_bytes, want.total_bytes);
    EXPECT_EQ(got.query_messages, want.total_messages);
    // Re-base the query's view onto the solo run's single-tenant totals.
    got.total_bytes = got.query_bytes;
    got.total_messages = got.query_messages;
    for (uint64_t RunStats::*field :
         {&RunStats::base_bytes, &RunStats::max_node_bytes,
          &RunStats::base_messages, &RunStats::max_node_messages,
          &RunStats::initiation_bytes, &RunStats::computation_bytes}) {
      got.*field = want.*field;
    }
    got.top_node_loads = want.top_node_loads;
    ExpectSameRunStats(got, want);
  }
  EXPECT_EQ(reused[0].total_bytes, solo[0].total_bytes + solo[1].total_bytes);
  EXPECT_EQ(reused[0].total_messages,
            solo[0].total_messages + solo[1].total_messages);
  EXPECT_EQ(reused[0].initiation_bytes,
            solo[0].initiation_bytes + solo[1].initiation_bytes);
  EXPECT_EQ(reused[0].base_bytes, solo[0].base_bytes + solo[1].base_bytes);

  // Against the same pair over two identical but separate workloads (one
  // substrate each), reuse changes no RunStats field at all.
  auto wl_a = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto wl_b = *Workload::MakeQuery1(&topo, sel, 3, 7);
  const std::vector<RunStats> separate =
      RunCoResident(topo, {&wl_a, &wl_b}, &substrates);
  EXPECT_EQ(substrates, 2);
  for (size_t i = 0; i < separate.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " vs separate workloads");
    ExpectSameRunStats(reused[i], separate[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(TreeModes, SubstrateReuseTest,
                         ::testing::Values(common::TreeMode::kPerSource,
                                           common::TreeMode::kShared));

TEST(MediumEquivalenceTest, SharingKeysOnEveryGenerationInput) {
  // Two specs with one SQL text and one seed but different true
  // parameters generate different sample streams, so no pair evaluation
  // may serve both: each query equals its own reference join.
  constexpr char kSql[] =
      "SELECT S.id, T.id, S.time FROM S, T [windowsize=3 sampleinterval=100] "
      "WHERE S.id < 25 AND hash(S.u) % 2 = 0 AND T.id > 50 AND "
      "hash(T.u) % 2 = 0 AND S.x = T.y + 5 AND S.u = T.u";
  const int kCycles = 30;
  auto topo = *net::Topology::Random(100, 7.0, 42);
  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;
  SharedMedium medium(&topo, {}, mopts);
  const std::vector<SelectivityParams> params = {{0.5, 0.5, 0.2},
                                                 {0.5, 0.5, 0.05}};
  std::vector<JoinExecutor*> execs;
  for (const SelectivityParams& p : params) {
    SharedMedium::QuerySpec spec;
    spec.sql = kSql;
    spec.params = p;
    spec.seed = 7;
    spec.options.algorithm = Algorithm::kInnet;
    spec.options.features = InnetFeatures::Cm();
    spec.options.knobs.tree_mode = common::TreeMode::kShared;
    auto admitted = medium.TryAddQuery(spec);
    ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
    execs.push_back(*admitted);
  }
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_EQ(medium.num_shared_placements(), 0);
  ASSERT_TRUE(medium.RunCycles(kCycles).ok());
  for (size_t i = 0; i < params.size(); ++i) {
    auto wl = Workload::FromQuery(&topo, *query::ParseQuery(kSql), params[i],
                                  7);
    ASSERT_TRUE(wl.ok());
    EXPECT_EQ(execs[i]->results(),
              testing_util::ReferenceResults(*wl, kCycles))
        << "query " << i;
  }
}

TEST(MediumEquivalenceTest, SharingKeysOnAdaptationKnobs) {
  // One Workload object, two Innet-cm queries: the first frozen, the second
  // re-optimizing every 5 cycles across a rate swap. A shared placement
  // would freeze the second query on the owner's plan, so none may be
  // shared, and the second query must behave exactly as it does alone.
  const int kCycles = 60;
  auto topo = *net::Topology::Random(100, 7.0, 42);
  const SelectivityParams before{0.1, 1.0, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, before, 3, 7);
  wl.SetGlobalSwitch(20, {1.0, 0.1, 0.2});
  ExecutorOptions frozen;
  frozen.algorithm = Algorithm::kInnet;
  frozen.features = InnetFeatures::Cm();
  frozen.assumed = before;
  frozen.knobs.tree_mode = common::TreeMode::kShared;
  ExecutorOptions adaptive = frozen;
  adaptive.knobs.reopt_interval = 5;

  auto solo = core::RunExperiment(wl, adaptive, kCycles);
  ASSERT_TRUE(solo.ok()) << solo.status().ToString();
  ASSERT_GT(solo->migrations, 0u);

  MediumOptions mopts;
  mopts.knobs.tree_mode = common::TreeMode::kShared;
  SharedMedium medium(&topo, {}, mopts);
  auto first = medium.TryAddQuery(&wl, frozen);
  auto second = medium.TryAddQuery(&wl, adaptive);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(medium.InitiateAll().ok());
  EXPECT_EQ(medium.num_shared_placements(), 0);
  ASSERT_TRUE(medium.RunCycles(kCycles).ok());
  // query_bytes is not compared: the second query adopts the multicast
  // trees the first already installed, without paying for them.
  const RunStats got = (*second)->Stats();
  EXPECT_EQ(got.results, solo->results);
  EXPECT_EQ(got.migrations, solo->migrations);
  EXPECT_EQ(got.planned_migrations, solo->planned_migrations);
  EXPECT_EQ(got.reopt_passes, solo->reopt_passes);
}

}  // namespace
}  // namespace join
}  // namespace aspen
