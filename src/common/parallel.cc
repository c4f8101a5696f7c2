#include "common/parallel.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace aspen {
namespace common {

int DefaultThreadCount() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelFor(int n, int num_threads, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (num_threads <= 0) num_threads = DefaultThreadCount();
  WorkerPool pool(std::min(num_threads, n) - 1);
  pool.Run(n, fn);
}

WorkerPool::WorkerPool(int num_workers) {
  threads_.reserve(num_workers > 0 ? num_workers : 0);
  for (int t = 0; t < num_workers; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  job_ready_.NotifyAll();
  for (auto& th : threads_) th.join();
}

void WorkerPool::RecordError() {
  MutexLock lock(&mu_);
  if (!first_error_) first_error_ = std::current_exception();
}

void WorkerPool::WorkerLoop() {
  uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* job;
    int size;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && generation_ == seen) job_ready_.Wait(&mu_);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
      size = job_size_;
    }
    Drain(size, *job);
    {
      MutexLock lock(&mu_);
      if (--inflight_workers_ == 0) job_done_.NotifyOne();
    }
  }
}

void WorkerPool::Open(int n, const std::function<void(int)>& fn, bool wake) {
  {
    MutexLock lock(&mu_);
    job_ = &fn;
    job_size_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    inflight_workers_ = wake ? num_workers() : 0;
    if (wake) ++generation_;
  }
  if (wake) job_ready_.NotifyAll();
}

void WorkerPool::Drain(int n, const std::function<void(int)>& fn) {
  for (int i = next_index_.fetch_add(1); i < n; i = next_index_.fetch_add(1)) {
    try {
      fn(i);
    } catch (...) {
      RecordError();
    }
  }
}

void WorkerPool::Close() {
  std::exception_ptr err;
  {
    MutexLock lock(&mu_);
    while (inflight_workers_ != 0) job_done_.Wait(&mu_);
    job_ = nullptr;
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void WorkerPool::Run(int n, const std::function<void(int)>& fn) {
  ASPEN_CHECK(!dispatched_);
  if (n <= 0) return;
  // A one-index job runs inline: waking the workers would cost more than
  // it. Otherwise the caller is a peer of the workers and drains indices
  // too, so the job finishes even if a worker is slow to wake.
  Open(n, fn, /*wake=*/!threads_.empty() && n > 1);
  Drain(n, fn);
  Close();
}

void WorkerPool::Dispatch(int n, const std::function<void(int)>& fn) {
  ASPEN_CHECK(!dispatched_);
  dispatched_ = true;
  if (n <= 0) return;
  Open(n, fn, /*wake=*/!threads_.empty());
  // With zero workers the whole job runs here (no overlap is possible);
  // its first error still surfaces at the Wait() boundary.
  if (threads_.empty()) Drain(n, fn);
}

void WorkerPool::Wait() {
  if (!dispatched_) return;
  dispatched_ = false;
  Close();
}

}  // namespace common
}  // namespace aspen
