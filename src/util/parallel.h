// Deterministic parallel execution (DESIGN.md §5g).
//
// A small fixed-size thread pool with a self-balancing parallel_for: the
// workers, the caller among them, claim the indices of [0, n) one at a
// time from a shared counter until none is left, so a slow index holds
// back only the worker running it. Which worker runs an index is a race
// outcome and never shows in the results: each index writes only its
// own output slot and draws from streams keyed by its own data, so a
// parallel run is bit-identical to the serial loop — the property the
// determinism suite enforces (same seed => same hashes at any thread
// count).
//
// This header is the single concurrency funnel of the repository:
// scripts/lint.py (rule `thread-funnel`) bans raw std::thread/std::async
// everywhere else, so all parallelism inherits these ordering guarantees.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sid::util {

/// Fixed-size pool of `thread_count() - 1` worker threads plus the calling
/// thread. Construction with threads <= 1 spawns nothing and parallel_for
/// degenerates to the plain serial loop.
class ThreadPool {
 public:
  /// `threads` is the total worker count including the caller; 0 is
  /// normalized to 1 (serial).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Runs body(i) for every i in [0, n) exactly once, blocking until all
  /// complete.
  ///
  /// Scheduling: every worker (the caller included) takes the next
  /// unclaimed index until none is left. The body must not mutate state
  /// shared between indices; under that contract results are
  /// bit-identical to the serial loop for every T, whichever worker ran
  /// which index. A worker whose body throws stops claiming; the first
  /// exception is rethrown on the calling thread after all workers stop.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t generation = 0;
    std::size_t pending = 0;  ///< workers still running this job
    std::exception_ptr error;
  };

  void worker_loop();
  /// Claims and runs indices of [0, n) until none is left. The job
  /// description is passed by value/reference (snapshotted under mu_ by
  /// the caller), so the loop itself runs lock-free; only error capture
  /// reacquires.
  void run_claimed(std::size_t n,
                   const std::function<void(std::size_t)>& body)
      SID_EXCLUDES(mu_);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar job_ready_;
  CondVar job_done_;
  Job job_ SID_GUARDED_BY(mu_);
  bool stop_ SID_GUARDED_BY(mu_) = false;
  /// The next unclaimed index of the running job. Reset under mu_ before
  /// the job is published; workers see the reset through that lock.
  std::atomic<std::size_t> next_index_{0};
};

}  // namespace sid::util
