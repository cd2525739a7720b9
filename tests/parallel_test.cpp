// Unit tests for the deterministic thread pool (util/parallel.h): index
// claiming, result ordering, exception propagation, degenerate shapes,
// and pool reuse. The end-to-end bit-identity claims live in
// determinism_test.cpp; this file pins the pool mechanics they rest on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace sid::util {
namespace {

TEST(ThreadPoolTest, ZeroThreadsNormalizesToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ResultsMatchSerialAtAnyThreadCount) {
  const std::size_t n = 257;  // prime: chunks are uneven for every T
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) {
    serial[i] = static_cast<double>(i) * 1.5 + 0.25;
  }
  for (const std::size_t threads : {2u, 3u, 5u, 16u}) {
    ThreadPool pool(threads);
    std::vector<double> out(n, -1.0);
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 0.25;
    });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, HandlesFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<int> out(3, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must survive a throwing job and accept new work.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50L * (63L * 64L / 2L));
}

TEST(ThreadPoolTest, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 returns only once every other index has run (or a bounded
  // wait runs out, so the test cannot hang). Claimed indices let the other
  // workers finish the range meanwhile; a static partition would queue
  // index 0's chunk-mates behind it and run out the deadline.
  constexpr std::size_t kN = 16;
  ThreadPool pool(4);
  std::atomic<std::size_t> others_done{0};
  bool waited_out = false;
  pool.parallel_for(kN, [&](std::size_t i) {
    if (i != 0) {
      others_done.fetch_add(1, std::memory_order_release);
      return;
    }
    // At least 10 s in 1 ms naps; the bound needs no clock read.
    for (int nap = 0; others_done.load(std::memory_order_acquire) < kN - 1;
         ++nap) {
      if (nap == 10000) {
        waited_out = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_FALSE(waited_out) << "the other indices waited for index 0";
  EXPECT_EQ(others_done.load(), kN - 1);
}

TEST(ParallelForTest, SingleThreadPoolRunsSerial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> out(4, 0);
  pool.parallel_for(out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) * 2;
  });
  EXPECT_EQ(out, (std::vector<int>{0, 2, 4, 6}));
}

}  // namespace
}  // namespace sid::util
