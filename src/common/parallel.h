// Index-space thread pool: run fn(0..n-1) on a bounded set of workers.
// ParallelFor is a one-shot WorkerPool, used by core::RunAveraged, whose
// repetitions are embarrassingly parallel — each owns its workload,
// network and RNG, and the only shared object (the Topology) is immutable.

#ifndef ASPEN_COMMON_PARALLEL_H_
#define ASPEN_COMMON_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aspen {
namespace common {

/// Hardware concurrency, at least 1.
int DefaultThreadCount();

/// \brief Invokes `fn(i)` for every i in [0, n) on a one-shot WorkerPool of
/// up to `num_threads` threads, the caller included (0 = hardware
/// concurrency). Blocks until every invocation returned. With one thread
/// (or n == 1) the calls run inline on the caller's thread.
///
/// `fn` must be safe to call concurrently from multiple threads. If any
/// invocation throws, every index still runs; the first-recorded exception
/// is rethrown on the caller after the join.
void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn);

/// \brief Persistent fork-join pool for phase-structured work.
///
/// The worker threads are spawned once and parked on a condition variable
/// between jobs, so a Run() costs two wakeup/park cycles instead of thread
/// creation — cheap enough to call once per simulation phase (the sharded
/// kernel runs several Run()s per transmission cycle). Run() holds the job
/// by pointer and never copies the callable, so a steady-state Run()
/// performs no heap allocation.
class WorkerPool {
 public:
  /// Spawns `num_workers` parked threads (0 is valid: every Run() then
  /// executes inline on the caller).
  explicit WorkerPool(int num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Invokes `fn(i)` for every i in [0, n); the caller participates, so all
  /// n indices complete even with zero workers. With n == 1 the workers
  /// stay parked and the caller runs the index inline. Blocks until done.
  /// Not reentrant; only one Run() may be active at a time, and never while
  /// a Dispatch() is outstanding.
  ///
  /// Exception contract: a throwing fn(i) does not abort the job — every
  /// index still runs (the sharded kernel's phase barriers assume full
  /// coverage) — and the first exception recorded is rethrown on the
  /// caller's thread after the join, leaving the pool reusable.
  void Run(int n, const std::function<void(int)>& fn);

  /// \brief Starts `fn(i)` for every i in [0, n) on the worker threads and
  /// returns immediately; the caller does NOT participate and is free to do
  /// unrelated work until Wait(). `fn` is borrowed (never copied) and must
  /// stay alive and unmodified until Wait() returns. At most one dispatched
  /// job may be outstanding, and Run() may not be called while one is.
  ///
  /// With zero workers the job runs inline here (Dispatch() then blocks for
  /// its duration) so the Dispatch/Wait pair still covers every index —
  /// same observable contract, no overlap.
  void Dispatch(int n, const std::function<void(int)>& fn);

  /// \brief Blocks until the job started by the last Dispatch() completes,
  /// then rethrows the first exception any index recorded — exactly Run()'s
  /// exception contract, surfaced at the Wait() boundary. The pool is
  /// reusable (Run() or Dispatch()) afterwards. No-op when no dispatched
  /// job is outstanding.
  void Wait();

  int num_workers() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  /// Publishes the job over [0, n); wakes the workers only when `wake`.
  void Open(int n, const std::function<void(int)>& fn, bool wake)
      ASPEN_EXCLUDES(mu_);
  /// Runs `fn` on claimed indices until none are left, recording throws.
  void Drain(int n, const std::function<void(int)>& fn) ASPEN_EXCLUDES(mu_);
  /// Waits for the woken workers, ends the job, rethrows its first error.
  void Close() ASPEN_EXCLUDES(mu_);

  /// Records the currently in-flight exception as the job's outcome if it
  /// is the first; later exceptions from the same job are dropped.
  void RecordError() ASPEN_EXCLUDES(mu_);

  Mutex mu_;
  CondVar job_ready_;
  CondVar job_done_;
  // Borrowed during Run(); never copied.
  const std::function<void(int)>* job_ ASPEN_GUARDED_BY(mu_) = nullptr;
  int job_size_ ASPEN_GUARDED_BY(mu_) = 0;
  uint64_t generation_ ASPEN_GUARDED_BY(mu_) = 0;
  std::atomic<int> next_index_{0};
  int inflight_workers_ ASPEN_GUARDED_BY(mu_) = 0;
  bool shutdown_ ASPEN_GUARDED_BY(mu_) = false;
  /// True between Dispatch() and Wait(). Touched by the owning thread only.
  bool dispatched_ = false;
  std::exception_ptr first_error_ ASPEN_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // written by ctor/dtor only
};

}  // namespace common
}  // namespace aspen

#endif  // ASPEN_COMMON_PARALLEL_H_
