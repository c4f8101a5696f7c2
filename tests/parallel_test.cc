#include "common/parallel.h"

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace aspen {
namespace common {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, 4, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelForTest, ZeroAndNegativeNAreNoops) {
  std::atomic<int> calls{0};
  ParallelFor(0, 4, [&](int) { calls.fetch_add(1); });
  ParallelFor(-3, 4, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  ParallelFor(8, 1, [&](int i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, SingleThreadExceptionStillRunsEveryIndex) {
  // The inline path keeps the threaded path's contract: a throwing index
  // does not stop the ones after it, and the throw surfaces at the end.
  constexpr int kN = 8;
  std::atomic<int> calls{0};
  EXPECT_THROW(ParallelFor(kN, 1,
                           [&](int i) {
                             calls.fetch_add(1);
                             if (i == 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), kN);
}

TEST(ParallelForTest, ExceptionPropagatesAndEveryIndexStillRuns) {
  constexpr int kN = 64;
  std::atomic<int> calls{0};
  EXPECT_THROW(ParallelFor(kN, 4,
                           [&](int i) {
                             calls.fetch_add(1);
                             if (i == 7) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), kN);
}

TEST(WorkerPoolTest, ZeroNIsNoop) {
  WorkerPool pool(2);
  std::atomic<int> calls{0};
  pool.Run(0, [&](int) { calls.fetch_add(1); });
  pool.Run(-1, [&](int) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(WorkerPoolTest, ZeroWorkersRunsInlineOnCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  pool.Run(16, [&](int i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolTest, NEqualsOneRunsInlineEvenWithWorkers) {
  WorkerPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.Run(1, [&](int) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(WorkerPoolTest, MoreWorkersThanItemsCoversEveryIndexExactlyOnce) {
  WorkerPool pool(8);
  constexpr int kN = 3;
  std::vector<std::atomic<int>> hits(kN);
  pool.Run(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(WorkerPoolTest, ReuseAcrossRunsWithVaryingN) {
  WorkerPool pool(3);
  long long total = 0;
  for (int round = 0; round < 50; ++round) {
    const int n = 1 + (round % 7) * 13;  // exercises inline and pooled paths
    std::atomic<long long> sum{0};
    pool.Run(n, [&](int i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), static_cast<long long>(n) * (n + 1) / 2)
        << "round " << round;
    total += sum.load();
  }
  EXPECT_GT(total, 0);
}

TEST(WorkerPoolTest, ExceptionPropagatesFromInlinePath) {
  WorkerPool pool(0);
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.Run(5,
                        [&](int i) {
                          calls.fetch_add(1);
                          if (i == 2) throw std::runtime_error("inline boom");
                        }),
               std::runtime_error);
  // Every index still runs; the throw is deferred to the end of the job.
  EXPECT_EQ(calls.load(), 5);
}

TEST(WorkerPoolTest, ExceptionPropagatesFromWorkersAndPoolStaysUsable) {
  WorkerPool pool(4);
  constexpr int kN = 128;
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.Run(kN,
                        [&](int i) {
                          calls.fetch_add(1);
                          if (i % 31 == 7) throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  EXPECT_EQ(calls.load(), kN);

  // A failed job must not poison the pool: the next Run is clean.
  std::atomic<int> ok{0};
  pool.Run(kN, [&](int) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), kN);
}

TEST(WorkerPoolTest, WorkerThreadsActuallyParticipate) {
  WorkerPool pool(4);
  constexpr int kN = 512;
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.Run(kN, [&](int) {
    // A little work so the caller cannot drain everything alone.
    volatile int spin = 0;
    for (int k = 0; k < 1000; ++k) spin += k;
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  // The caller participates, so at least one thread is always seen; with
  // four workers and sizable work, more than one thread should appear.
  EXPECT_GE(seen.size(), 1u);
}

TEST(WorkerPoolDispatchTest, OverlapsWithMainThreadWork) {
  WorkerPool pool(2);
  constexpr int kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<bool> release{false};
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> seen;
  auto job = std::function<void(int)>([&](int i) {
    // Park until the main thread has provably progressed past Dispatch():
    // the job cannot have run synchronously inside it.
    while (!release.load()) std::this_thread::yield();
    hits[i].fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  pool.Dispatch(kN, job);
  // Main-thread work overlapping the dispatched job.
  long long local = 0;
  for (int k = 0; k < 1000; ++k) local += k;
  EXPECT_EQ(local, 499500);
  release.store(true);
  pool.Wait();
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  // The caller never participates in a dispatched job.
  EXPECT_EQ(seen.count(caller), 0u);
  EXPECT_GE(seen.size(), 1u);
}

TEST(WorkerPoolDispatchTest, ExceptionCapturedAtDispatchSurfacesAtWait) {
  WorkerPool pool(3);
  constexpr int kN = 96;
  std::atomic<int> calls{0};
  auto job = std::function<void(int)>([&](int i) {
    calls.fetch_add(1);
    if (i % 17 == 5) throw std::runtime_error("dispatched boom");
  });
  pool.Dispatch(kN, job);
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // Same coverage contract as Run(): every index still executed.
  EXPECT_EQ(calls.load(), kN);
}

TEST(WorkerPoolDispatchTest, PoolReusableAfterDispatchAndAfterFailure) {
  WorkerPool pool(2);
  constexpr int kN = 32;
  auto boom = std::function<void(int)>(
      [&](int i) { if (i == 3) throw std::runtime_error("boom"); });
  pool.Dispatch(kN, boom);
  EXPECT_THROW(pool.Wait(), std::runtime_error);

  // Run() after a failed dispatched job.
  std::atomic<int> ran{0};
  pool.Run(kN, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), kN);

  // And another Dispatch/Wait round-trip.
  std::atomic<int> again{0};
  auto ok = std::function<void(int)>([&](int) { again.fetch_add(1); });
  pool.Dispatch(kN, ok);
  pool.Wait();
  EXPECT_EQ(again.load(), kN);
}

TEST(WorkerPoolDispatchTest, ZeroWorkersRunsInlineWithSameContract) {
  WorkerPool pool(0);
  constexpr int kN = 8;
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(kN);
  auto job = std::function<void(int)>([&](int i) {
    calls.fetch_add(1);
    ids[i] = std::this_thread::get_id();
    if (i == 1) throw std::runtime_error("inline boom");
  });
  pool.Dispatch(kN, job);
  // The job already ran inline, but the error still surfaces at Wait().
  EXPECT_EQ(calls.load(), kN);
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolDispatchTest, ZeroNDispatchAndBareWaitAreNoops) {
  WorkerPool pool(2);
  std::atomic<int> calls{0};
  auto job = std::function<void(int)>([&](int) { calls.fetch_add(1); });
  pool.Dispatch(0, job);
  pool.Wait();
  pool.Wait();  // no outstanding job: no-op
  EXPECT_EQ(calls.load(), 0);
}

}  // namespace
}  // namespace common
}  // namespace aspen
