// Steady-state allocation audit: after warm-up, a running join must execute
// sampling cycles without touching the heap. Every per-cycle object — frames,
// routes, payloads, join-window entries, arrival mailboxes, replay rings —
// is pooled or interned, so the only allocations happen during initiation
// and the first few (warm-up) cycles while slabs and scratch buffers grow to
// their steady-state capacity.
//
// The audit instruments global operator new/delete (bench/alloc_audit.h)
// with a counter gated by a flag, so surrounding gtest machinery is not
// measured.

#include <gtest/gtest.h>

#include "bench/alloc_audit.h"
#include "core/engine.h"
#include "join/executor.h"
#include "join/medium.h"
#include "net/topology.h"
#include "tests/solo_query.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using workload::SelectivityParams;
using workload::Workload;

uint64_t CountCycleAllocs(testing_util::SoloQuery* solo, int warmup_cycles,
                          int measured_cycles) {
  EXPECT_TRUE(solo->RunCycles(warmup_cycles).ok());
  allocaudit::ResetCount();
  allocaudit::SetCounting(true);
  Status st = solo->RunCycles(measured_cycles);
  allocaudit::SetCounting(false);
  EXPECT_TRUE(st.ok());
  return allocaudit::Count();
}

TEST(SteadyStateAllocationTest, InnetCyclesAllocateNothing) {
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.assumed = sel;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  EXPECT_EQ(CountCycleAllocs(&solo, /*warmup_cycles=*/60,
                             /*measured_cycles=*/40),
            0u);
}

TEST(SteadyStateAllocationTest, InnetMulticastMergingCyclesAllocateNothing) {
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();  // combining + multicast trees
  opts.assumed = sel;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  EXPECT_EQ(CountCycleAllocs(&solo, /*warmup_cycles=*/60,
                             /*measured_cycles=*/40),
            0u);
}

TEST(SteadyStateAllocationTest, LossyRadioCyclesAllocateNothing) {
  // Loss-driven retransmissions and drops must also stay on pooled frames.
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.assumed = sel;
  opts.loss_prob = 0.1;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  EXPECT_EQ(CountCycleAllocs(&solo, /*warmup_cycles=*/80,
                             /*measured_cycles=*/40),
            0u);
}

TEST(SteadyStateAllocationTest, PoolsAreReusedNotGrown) {
  // The payload slabs stop growing once warm: capacity after the measured
  // block equals capacity before it.
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.assumed = sel;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  ASSERT_TRUE(solo.RunCycles(60).ok());
  auto& pool = *solo.medium.network().payloads().GetOrCreate<join::DataPayload>(
      join::kPayloadTagData);
  const size_t warm_capacity = pool.capacity();
  ASSERT_GT(warm_capacity, 0u);
  ASSERT_TRUE(solo.RunCycles(40).ok());
  EXPECT_EQ(pool.capacity(), warm_capacity);
  // Between cycles nothing is in flight: every payload went back to the
  // free list.
  EXPECT_EQ(pool.live(), 0u);
}

TEST(SteadyStateAllocationTest, ShardedCyclesAllocateNothing) {
  // The sharded kernel must hold the same bar: per-shard frame slabs,
  // effect lists, staging buffers and merge scratch all reach steady-state
  // capacity during warm-up, and the worker pool parks on a condition
  // variable without heap traffic. (The audit counts allocations from every
  // thread: the instrumented operator new is global.) One caveat keeps the
  // bound at "a few per run" instead of a hard zero: a shard's deferred
  // effect list capacity tracks its *largest* delivery burst, and a rare
  // burst alignment can set a new high-water mark (one doubling) after any
  // warm-up. A long measured block shows there is no per-cycle churn: the
  // bound is one doubling per shard, two orders of magnitude below one
  // allocation per cycle.
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.features = join::InnetFeatures::Cm();
  opts.assumed = sel;
  opts.knobs.shards = 4;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  EXPECT_LE(CountCycleAllocs(&solo, /*warmup_cycles=*/60,
                             /*measured_cycles=*/200),
            4u);  // == knobs.shards
}

TEST(SteadyStateAllocationTest, ShardedLossyCyclesAllocateNothing) {
  auto topo = *net::Topology::Random(100, 7.0, 42);
  SelectivityParams sel{0.5, 0.5, 0.2};
  auto wl = *Workload::MakeQuery1(&topo, sel, 3, 7);
  join::ExecutorOptions opts;
  opts.algorithm = join::Algorithm::kInnet;
  opts.assumed = sel;
  opts.loss_prob = 0.1;
  opts.knobs.shards = 3;
  testing_util::SoloQuery solo(&wl, opts);
  ASSERT_TRUE(solo.exec.Initiate().ok());
  EXPECT_LE(CountCycleAllocs(&solo, /*warmup_cycles=*/80,
                             /*measured_cycles=*/200),
            3u);  // == knobs.shards
}

}  // namespace
}  // namespace aspen
