// Re-optimization (Section 6): the ReoptController's pacing and divergence
// gate, the planned three-phase migration protocol (announce → transfer →
// complete), both migration policies against the reference join, and the
// determinism contract with the loop enabled — a run that migrates
// placements mid-flight must stay byte-identical across shard counts and
// pipeline depths, and must not lose or duplicate a single join result
// across the transfer cycles.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "adapt/reopt.h"
#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "tests/reference_join.h"
#include "workload/workload.h"

namespace aspen {
namespace join {
namespace {

using workload::SelectivityParams;
using workload::Workload;

TEST(ReoptControllerTest, PacingArmsEveryInterval) {
  adapt::ReoptController ctl(/*interval=*/5, /*threshold=*/0.33);
  EXPECT_TRUE(ctl.enabled());
  int due = 0;
  for (int t = 1; t <= 20; ++t) {
    ctl.Tick();
    if (ctl.TakeDue()) ++due;
  }
  EXPECT_EQ(due, 4);  // armed at ticks 5, 10, 15, 20
  EXPECT_EQ(ctl.passes(), 4u);
  EXPECT_FALSE(ctl.TakeDue());  // the armed flag is consumed

  adapt::ReoptController off(/*interval=*/0, /*threshold=*/0.33);
  EXPECT_FALSE(off.enabled());
  off.Tick();
  EXPECT_FALSE(off.TakeDue());
}

TEST(ReoptControllerTest, DivergenceTriggerSweepAroundPaperThreshold) {
  adapt::ReoptController ctl(/*interval=*/1, /*threshold=*/0.33);
  const SelectivityParams ref{0.5, 0.5, 0.2};
  // One component scaled across the 33% boundary: the trigger is relative
  // to the placement-time reference estimate.
  for (double scale : {1.0, 1.10, 1.25, 1.32}) {
    SelectivityParams fresh = ref;
    fresh.sigma_s = ref.sigma_s * scale;
    EXPECT_FALSE(ctl.ShouldReplan(fresh, ref)) << "scale=" << scale;
  }
  for (double scale : {1.34, 1.50, 3.0}) {
    SelectivityParams fresh = ref;
    fresh.sigma_s = ref.sigma_s * scale;
    EXPECT_TRUE(ctl.ShouldReplan(fresh, ref)) << "scale=" << scale;
  }
  // Shrinking diverges symmetrically, and every component is consulted.
  SelectivityParams fresh = ref;
  fresh.sigma_st = ref.sigma_st * 0.5;
  EXPECT_TRUE(ctl.ShouldReplan(fresh, ref));
  fresh = ref;
  fresh.sigma_t = ref.sigma_t * 0.66;
  EXPECT_TRUE(ctl.ShouldReplan(fresh, ref));
}

// ---- planned migration under a mid-run selectivity shift --------------------

constexpr SelectivityParams kBefore{0.1, 1.0, 0.2};
constexpr SelectivityParams kAfter{1.0, 0.1, 0.2};
constexpr int kShiftCycle = 30;
constexpr int kCycles = 100;

Workload ShiftedWorkload(const net::Topology& topo) {
  auto wl = *Workload::MakeQuery1(&topo, kBefore, 3, 7);
  // The producer roles swap rates mid-run (the paper's Figure 12(b)
  // setting): the placements chosen for kBefore become measurably wrong.
  wl.SetGlobalSwitch(kShiftCycle, kAfter);
  return wl;
}

ExecutorOptions ShiftedOptions(InnetFeatures features,
                               common::Migration migration) {
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.features = features;
  opts.assumed = kBefore;
  opts.seed = 42;
  opts.knobs.migration = migration;
  opts.knobs.reopt_interval = 10;
  return opts;
}

// Ungrouped planned runs by default: every relocation takes the planned
// protocol.
RunStats RunShifted(
    const net::Topology& topo, int shards, int depth, double loss,
    InnetFeatures features = InnetFeatures::None(),
    common::Migration migration = common::Migration::kPlanned) {
  Workload wl = ShiftedWorkload(topo);
  ExecutorOptions opts = ShiftedOptions(features, migration);
  opts.loss_prob = loss;
  opts.knobs.shards = shards;
  opts.knobs.pipeline_depth = depth;
  Result<RunStats> st = core::RunExperiment(wl, opts, kCycles);
  EXPECT_TRUE(st.ok()) << st.status().ToString();
  return st.ok() ? *st : RunStats();
}

void ExpectIdentical(const RunStats& a, const RunStats& b,
                     const std::string& what) {
  EXPECT_EQ(a.total_bytes, b.total_bytes) << what;
  EXPECT_EQ(a.base_bytes, b.base_bytes) << what;
  EXPECT_EQ(a.max_node_bytes, b.max_node_bytes) << what;
  EXPECT_EQ(a.total_messages, b.total_messages) << what;
  EXPECT_EQ(a.initiation_bytes, b.initiation_bytes) << what;
  EXPECT_EQ(a.computation_bytes, b.computation_bytes) << what;
  EXPECT_EQ(a.query_bytes, b.query_bytes) << what;
  EXPECT_EQ(a.results, b.results) << what;
  EXPECT_DOUBLE_EQ(a.avg_result_delay_cycles, b.avg_result_delay_cycles)
      << what;
  EXPECT_DOUBLE_EQ(a.max_result_delay_cycles, b.max_result_delay_cycles)
      << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.failovers, b.failovers) << what;
  EXPECT_EQ(a.reopt_passes, b.reopt_passes) << what;
  EXPECT_EQ(a.planned_migrations, b.planned_migrations) << what;
}

TEST(ReoptMigrationTest, MigrationPreservesResults) {
  auto topo = *net::Topology::Random(80, 7.0, 11);
  const uint64_t reference =
      testing_util::ReferenceResults(ShiftedWorkload(topo), kCycles);
  const std::pair<const char*, InnetFeatures> variants[] = {
      {"Innet", InnetFeatures::None()},
      {"Innet-cm", InnetFeatures::Cm()},
      {"Innet-cmp", InnetFeatures::Cmp()},
      {"Innet-cmg", InnetFeatures::Cmg()},
  };
  for (const auto& [name, features] : variants) {
    for (common::Migration migration :
         {common::Migration::kPlanned, common::Migration::kInstant}) {
      const bool planned = migration == common::Migration::kPlanned;
      const std::string what =
          std::string(name) + (planned ? " planned" : " instant");
      RunStats st = RunShifted(topo, /*shards=*/1, /*depth=*/1, /*loss=*/0.0,
                               features, migration);
      // The shift drives the live estimates past the 33% trigger, so a
      // pass replans and at least one pair relocates — ungrouped pairs
      // under the planned policy through announce, window transfer and
      // plan flip, grouped ones through the MPO round...
      EXPECT_GT(st.migrations, 0u) << what;
      if (planned && !features.group_opt) {
        EXPECT_GT(st.reopt_passes, 0u) << what;
        EXPECT_GT(st.planned_migrations, 0u) << what;
        EXPECT_GE(st.migrations, st.planned_migrations) << what;
      }
      // ...without losing or duplicating a single result: the run matches
      // the loss-free reference join exactly, including across the
      // transfer cycles where the pair's window state is in flight, and
      // after a move of a multicast variant, whose producers send along
      // per-producer trees rather than the send plans.
      EXPECT_EQ(st.results, reference) << what;
    }
  }
}

TEST(ReoptMigrationTest, PlannedWithCounterResetMatchesReference) {
  // Planned migration over estimators that restart every 20 learn ticks:
  // resets ride with the pass in the re-optimize phase, and relocations
  // still lose no result.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  Workload wl = ShiftedWorkload(topo);
  ExecutorOptions opts =
      ShiftedOptions(InnetFeatures::Cm(), common::Migration::kPlanned);
  opts.knobs.counter_reset_interval = 20;
  Result<RunStats> st = core::RunExperiment(wl, opts, kCycles);
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_GT(st->planned_migrations, 0u);
  EXPECT_EQ(st->results, testing_util::ReferenceResults(wl, kCycles));
}

TEST(ReoptMigrationTest, FrozenPlacementsNeverMigrate) {
  // The interval=0 default keeps the historical behavior bit-for-bit: no
  // passes, no planned migrations.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  Workload wl = ShiftedWorkload(topo);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.assumed = kBefore;
  Result<RunStats> st = core::RunExperiment(wl, opts, kCycles);
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->reopt_passes, 0u);
  EXPECT_EQ(st->planned_migrations, 0u);
}

TEST(ReoptMigrationTest, ShardAndDepthByteIdentityWithReoptOn) {
  auto topo = *net::Topology::Random(80, 7.0, 11);
  RunStats base = RunShifted(topo, 1, 1, /*loss=*/0.0);
  ASSERT_GT(base.planned_migrations, 0u);
  for (int shards : {1, 3}) {
    for (int depth : {1, 2, 3}) {
      if (shards == 1 && depth == 1) continue;
      RunStats other = RunShifted(topo, shards, depth, /*loss=*/0.0);
      ExpectIdentical(base, other,
                      "shards=" + std::to_string(shards) +
                          " depth=" + std::to_string(depth));
    }
  }
}

TEST(ReoptMigrationTest, LossyShardIdentityWithReoptOn) {
  // Under radio loss the transfer message itself can drop; the drop handler
  // degrades the relocation deterministically (the payload's windows are
  // applied directly), so sharded and pipelined runs still match byte for
  // byte.
  auto topo = *net::Topology::Random(80, 7.0, 11);
  RunStats base = RunShifted(topo, 1, 1, /*loss=*/0.1);
  for (int shards : {3}) {
    for (int depth : {1, 2}) {
      RunStats other = RunShifted(topo, shards, depth, /*loss=*/0.1);
      ExpectIdentical(base, other,
                      "lossy shards=" + std::to_string(shards) +
                          " depth=" + std::to_string(depth));
    }
  }
}

TEST(ReoptMediumTest, MidRunAdmissionPacesOnQueryLocalClock) {
  // Satellite of the re-optimization loop: pacing counts the query's own
  // learn ticks, so a query admitted at medium cycle 7 re-optimizes 10 of
  // *its* cycles later — not at the medium clock's next multiple.
  auto topo = *net::Topology::Random(60, 7.0, 3);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto early_wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  auto late_wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.assumed = sel;
  opts.knobs.reopt_interval = 10;

  SharedMedium medium(&topo, {});
  auto early = medium.TryAddQuery(&early_wl, opts);
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE((*early)->Initiate().ok());
  ASSERT_TRUE(medium.RunCycles(7).ok());
  auto late = medium.TryAddQuery(&late_wl, opts);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE((*late)->Initiate().ok());
  ASSERT_TRUE(medium.RunCycles(25).ok());
  // Early query: 32 ticks → armed at 10/20/30, each consumed on the
  // following cycle's re-optimize hook.
  EXPECT_EQ((*early)->Stats().reopt_passes, 3u);
  // Late query: 25 ticks on its own clock → exactly two passes.
  EXPECT_EQ((*late)->Stats().reopt_passes, 2u);
}

// ---- scripted selectivity shifts (scenario layer) ---------------------------

class RecordingHost : public scenario::QueryHost {
 public:
  Status OnQueryArrival(int, int) override { return Status::OK(); }
  Status OnQueryDeparture(int) override { return Status::OK(); }
  Status OnSelectivityShift(int at_cycle, double sigma_s, double sigma_t,
                            double sigma_st) override {
    at_cycle_ = at_cycle;
    params_ = {sigma_s, sigma_t, sigma_st};
    ++shifts_;
    return Status::OK();
  }
  int at_cycle_ = -1;
  SelectivityParams params_;
  int shifts_ = 0;
};

TEST(SelectivityShiftEventTest, DispatchedEagerlyAtHostAttachment) {
  auto topo = *net::Topology::Random(20, 7.0, 1);
  net::Network net(&topo, {});
  scenario::DynamicsSchedule sched;
  sched.ShiftSelectivityAt(/*cycle=*/40, 1.0, 0.1, 0.2);
  scenario::ScenarioDriver driver(&net, &sched);
  RecordingHost host;
  // The shift dispatches at attachment (cycle-indexed registration is what
  // keeps pipelined runs byte-identical), not when the clock reaches 40.
  ASSERT_TRUE(driver.set_query_host(&host).ok());
  EXPECT_EQ(host.shifts_, 1);
  EXPECT_EQ(host.at_cycle_, 40);
  EXPECT_DOUBLE_EQ(host.params_.sigma_s, 1.0);
  EXPECT_DOUBLE_EQ(host.params_.sigma_t, 0.1);
  EXPECT_DOUBLE_EQ(host.params_.sigma_st, 0.2);
  EXPECT_EQ(driver.shifts_applied(), 1);
}

TEST(SelectivityShiftEventTest, HostWithoutShiftSupportFailsEagerly) {
  class NoShiftHost : public scenario::QueryHost {
   public:
    Status OnQueryArrival(int, int) override { return Status::OK(); }
    Status OnQueryDeparture(int) override { return Status::OK(); }
  };
  auto topo = *net::Topology::Random(20, 7.0, 1);
  net::Network net(&topo, {});
  scenario::DynamicsSchedule sched;
  sched.ShiftSelectivityAt(10, 0.5, 0.5, 0.2);
  scenario::ScenarioDriver driver(&net, &sched);
  NoShiftHost host;
  Status st = driver.set_query_host(&host);
  EXPECT_TRUE(st.IsFailedPrecondition());
}

}  // namespace
}  // namespace join
}  // namespace aspen
