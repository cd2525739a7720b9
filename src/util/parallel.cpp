#include "util/parallel.h"

#include <utility>

namespace sid::util {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (std::size_t w = 1; w < threads_; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mu_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_claimed(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  // Relaxed is enough: the counter only hands out indices, and every
  // body's writes reach the caller through the mu_ handoff that ends the
  // job.
  try {
    for (std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
         i < n; i = next_index_.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  } catch (...) {
    const LockGuard lock(mu_);
    if (!job_.error) job_.error = std::current_exception();
  }
}

void ThreadPool::worker_loop() {
  std::size_t seen_generation = 0;
  for (;;) {
    // Snapshot the job description under the lock; the snapshot (not the
    // guarded job_ fields) feeds the lock-free claiming loop. The pointee
    // stays valid until parallel_for returns, which cannot happen before
    // this worker decrements pending below.
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    {
      const LockGuard lock(mu_);
      while (!stop_ && job_.generation == seen_generation) {
        job_ready_.wait(mu_);
      }
      if (stop_) return;
      seen_generation = job_.generation;
      n = job_.n;
      body = job_.body;
    }
    run_claimed(n, *body);
    bool last = false;
    {
      const LockGuard lock(mu_);
      last = --job_.pending == 0;
    }
    if (last) job_done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    const LockGuard lock(mu_);
    next_index_.store(0, std::memory_order_relaxed);
    job_.n = n;
    job_.body = &body;
    job_.pending = threads_ - 1;
    job_.error = nullptr;
    ++job_.generation;
  }
  job_ready_.notify_all();
  run_claimed(n, body);  // the caller claims indices too
  std::exception_ptr error;
  {
    const LockGuard lock(mu_);
    while (job_.pending != 0) job_done_.wait(mu_);
    job_.body = nullptr;
    error = std::exchange(job_.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sid::util
