// Unit tests for util::parallel_for (util/parallel.h), the one-shot
// worker pool: index claiming, result ordering, exception propagation,
// degenerate shapes and the number of threads a call uses. The
// end-to-end bit-identity claims live in determinism_test.cpp; this file
// pins the mechanics they rest on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace sid::util {
namespace {

using ThreadId = decltype(std::this_thread::get_id());

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    parallel_for(threads, n, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ResultsMatchSerialAtAnyThreadCount) {
  const std::size_t n = 257;  // prime: no thread count divides it
  std::vector<double> serial(n);
  for (std::size_t i = 0; i < n; ++i) {
    serial[i] = static_cast<double>(i) * 1.5 + 0.25;
  }
  for (const std::size_t threads : {2u, 3u, 5u, 16u}) {
    std::vector<double> out(n, -1.0);
    parallel_for(threads, n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 0.25;
    });
    EXPECT_EQ(out, serial) << "threads=" << threads;
  }
}

// A call runs its bodies on at most min(threads, n) distinct threads:
// fewer items than threads start fewer workers.
TEST(ThreadPoolTest, HandlesFewerItemsThanThreads) {
  std::vector<int> out(3, 0);
  parallel_for(8, out.size(), [&](std::size_t i) {
    out[i] = static_cast<int>(i) + 1;
  });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));

  for (const std::size_t threads : {2u, 4u, 8u}) {
    for (const std::size_t n : {1u, 3u, 64u}) {
      std::vector<ThreadId> ran_on(n);
      parallel_for(threads, n, [&](std::size_t i) {
        ran_on[i] = std::this_thread::get_id();
      });
      const std::set<ThreadId> distinct(ran_on.begin(), ran_on.end());
      EXPECT_LE(distinct.size(), std::min(threads, n))
          << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  bool called = false;
  parallel_for(4, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  EXPECT_THROW(parallel_for(4, 100,
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // A throwing call leaves nothing behind: the next call works.
  std::atomic<int> count{0};
  parallel_for(4, 10, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SlowIndexDoesNotHoldBackTheRest) {
  // Index 0 returns only once every other index has run (or a bounded
  // wait runs out, so the test cannot hang). Claimed indices let the other
  // workers finish the range meanwhile; a static partition would queue
  // index 0's chunk-mates behind it and run out the deadline.
  constexpr std::size_t kN = 16;
  std::atomic<std::size_t> others_done{0};
  bool waited_out = false;
  parallel_for(4, kN, [&](std::size_t i) {
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

// One worker, and zero (normalized to one), is the serial loop on the
// calling thread, in index order.
TEST(ParallelForTest, SingleThreadPoolRunsSerial) {
  for (const std::size_t threads : {0u, 1u}) {
    std::vector<std::size_t> order;
    std::vector<ThreadId> ran_on;
    parallel_for(threads, 4, [&](std::size_t i) {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}))
        << "threads=" << threads;
    EXPECT_EQ(ran_on,
              std::vector<ThreadId>(4, std::this_thread::get_id()))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace sid::util
