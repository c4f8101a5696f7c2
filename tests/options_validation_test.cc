// Knob values are user input: each one either runs or returns a Status,
// never a crash. Negative re-optimization and counter-reset intervals, and
// a routing substrate width or sampling clock below 1, are rejected as
// InvalidArgument by every front door that builds or joins a medium
// (core::RunExperiment, core::ServiceRunner::Create,
// SharedMedium::TryAddQuery); an interval of 0 means frozen or never reset.
// Shard count and pipeline depth are clamped by the scheduler, so 0 runs
// as 1.

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "join/medium.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using join::Algorithm;
using join::ExecutorOptions;
using workload::SelectivityParams;
using workload::Workload;

constexpr SelectivityParams kSel{0.5, 0.5, 0.2};

ExecutorOptions InnetOptions() {
  ExecutorOptions opts;
  opts.algorithm = Algorithm::kInnet;
  opts.assumed = kSel;
  return opts;
}

class OptionsValidationTest : public ::testing::Test {
 protected:
  OptionsValidationTest()
      : topo_(*net::Topology::Random(60, 7.0, 3)),
        wl_(*Workload::MakeQuery1(&topo_, kSel, 3, 7)) {}

  net::Topology topo_;
  Workload wl_;
};

TEST_F(OptionsValidationTest, NegativeReoptIntervalIsInvalid) {
  ExecutorOptions opts = InnetOptions();
  opts.knobs.UsePaperLearning();
  opts.knobs.reopt_interval = -1;
  auto st = core::RunExperiment(wl_, opts, 5);
  EXPECT_TRUE(st.status().IsInvalidArgument()) << st.status().ToString();
}

TEST_F(OptionsValidationTest, NegativeCounterResetIntervalIsInvalid) {
  ExecutorOptions opts = InnetOptions();
  opts.knobs.UsePaperLearning();
  opts.knobs.counter_reset_interval = -1;
  auto st = core::RunExperiment(wl_, opts, 5);
  EXPECT_TRUE(st.status().IsInvalidArgument()) << st.status().ToString();
}

TEST_F(OptionsValidationTest, ZeroIntervalsRunFrozenAndNeverReset) {
  // 0 is a setting, not an error: no pass is ever armed and the counters
  // never restart, under either migration policy.
  for (common::Migration migration :
       {common::Migration::kPlanned, common::Migration::kInstant}) {
    ExecutorOptions opts = InnetOptions();
    opts.knobs.migration = migration;
    opts.knobs.reopt_interval = 0;
    opts.knobs.counter_reset_interval = 0;
    auto st = core::RunExperiment(wl_, opts, 10);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    EXPECT_GT(st->results, 0u);
    EXPECT_EQ(st->migrations, 0u);
    EXPECT_EQ(st->reopt_passes, 0u);
  }
}

TEST_F(OptionsValidationTest, ZeroTreesIsInvalid) {
  ExecutorOptions opts = InnetOptions();
  opts.num_trees = 0;
  auto st = core::RunExperiment(wl_, opts, 5);
  EXPECT_TRUE(st.status().IsInvalidArgument()) << st.status().ToString();
}

TEST_F(OptionsValidationTest, TryAddQueryRejectsInvalidOptionsCleanly) {
  join::SharedMedium medium(&topo_, {});
  ExecutorOptions opts = InnetOptions();
  opts.knobs.UsePaperLearning();
  opts.knobs.reopt_interval = -1;
  auto rejected = medium.TryAddQuery(&wl_, opts);
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(medium.num_queries(), 0);
}

TEST_F(OptionsValidationTest, ServiceZeroSampleIntervalIsInvalid) {
  core::ServiceOptions opts;
  opts.executor = InnetOptions();
  opts.medium.knobs.sample_interval = 0;
  auto runner = core::ServiceRunner::Create({&wl_}, opts);
  EXPECT_TRUE(runner.status().IsInvalidArgument())
      << runner.status().ToString();
}

TEST_F(OptionsValidationTest, ServiceZeroShardsRunsAsOneShard) {
  scenario::DynamicsSchedule schedule;
  schedule.ArriveAt(0, /*slot=*/0, /*template_id=*/0);
  core::ServiceOptions opts;
  opts.executor = InnetOptions();
  opts.dynamics = &schedule;
  auto one = core::RunService({&wl_}, opts, 10);
  opts.medium.knobs.shards = 0;
  opts.medium.knobs.pipeline_depth = 0;
  auto zero = core::RunService({&wl_}, opts, 10);
  ASSERT_TRUE(one.ok() && zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->total_results, one->total_results);
  EXPECT_EQ(zero->total_bytes, one->total_bytes);
}

TEST_F(OptionsValidationTest, ExperimentZeroShardsRunsAsOneShard) {
  ExecutorOptions opts = InnetOptions();
  auto one = core::RunExperiment(wl_, opts, 10);
  opts.knobs.shards = 0;
  opts.knobs.pipeline_depth = 0;
  auto zero = core::RunExperiment(wl_, opts, 10);
  ASSERT_TRUE(one.ok() && zero.ok()) << zero.status().ToString();
  EXPECT_EQ(zero->results, one->results);
  EXPECT_EQ(zero->total_bytes, one->total_bytes);
}

}  // namespace
}  // namespace aspen
