// Concurrency stress for the shared-state surfaces the thread-safety
// annotations guard (DESIGN.md §5i), driven through util::parallel_for:
// index claiming across one-shot workers, Counter atomics, the Histogram
// record mutex, Registry creation/dump locks, the process-global FFT
// plan cache, and Tracer line serialization. Exact totals are asserted,
// so lost updates — not just torn reads — fail the test. The TSan CI
// lane runs this binary under -fsanitize=thread (ctest label: stress).
#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/fft.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace sid {
namespace {

// More workers than the CI runner has cores, on purpose: oversubscription
// forces preemption inside critical sections, the schedules TSan feeds on.
constexpr std::size_t kThreads = 8;
constexpr std::size_t kRounds = 25;
constexpr std::size_t kIndices = 400;  // divisible by 4, 10 and 16 below

TEST(ParallelStressTest, SharedSurfacesKeepExactTotals) {
  obs::Registry registry;
  obs::Counter& hits = registry.counter("stress.hits");
  obs::Histogram& hist =
      registry.histogram("stress.values", {1.0, 2.0, 4.0, 8.0});
  std::ostringstream trace_out;
  obs::Tracer tracer;
  tracer.attach(&trace_out);

  for (std::size_t round = 0; round < kRounds; ++round) {
    util::parallel_for(kThreads, kIndices, [&](std::size_t i) {
      // Pre-resolved reference (hot path) and per-call registry lookup
      // (creation/lookup lock) both run from every worker.
      hits.add(1);
      registry.counter("stress.mod." + std::to_string(i % 10)).add(1);
      hist.record(static_cast<double>(i % 16));

      // Plan cache: four sizes requested concurrently; the all-ones
      // input puts the whole signal in bin 0, so a cache handing out a
      // half-constructed plan produces a wrong spectrum, not just a race.
      const std::size_t n = std::size_t{16} << (i % 4);
      const dsp::FftPlan& plan = dsp::fft_plan(n);
      ASSERT_EQ(plan.size(), n);
      std::vector<std::complex<double>> data(
          n, std::complex<double>(1.0, 0.0));
      plan.forward(data.data());
      EXPECT_NEAR(data[0].real(), static_cast<double>(n), 1e-9);
      EXPECT_NEAR(std::abs(data[1]), 0.0, 1e-9);

      tracer.emit(obs::Category::kNet, "stress", static_cast<double>(i),
                  {{"i", static_cast<std::uint64_t>(i)}});

      // Concurrent readers while other workers record: snapshots must be
      // internally consistent and dumps must not tear.
      if (i % 128 == 0) {
        const obs::Histogram::Snapshot snap = hist.snapshot();
        ASSERT_EQ(snap.buckets.size(), snap.bounds.size() + 1);
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t b : snap.buckets) bucket_total += b;
        EXPECT_EQ(bucket_total, snap.count);
      }
      if (i % 197 == 0) {
        const std::string json = registry.to_json(/*include_wall=*/false);
        EXPECT_NE(json.find("stress.hits"), std::string::npos);
      }
    });
  }

  const std::uint64_t total = kRounds * kIndices;
  EXPECT_EQ(hits.value(), total);
  for (int m = 0; m < 10; ++m) {
    EXPECT_EQ(registry.counter("stress.mod." + std::to_string(m)).value(),
              total / 10);
  }

  // i % 16 is uniform over [0, 16), so every residue was recorded
  // exactly total/16 times; bucket edges are {1, 2, 4, 8} -> +inf.
  const std::uint64_t per = total / 16;
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, total);
  ASSERT_EQ(snap.buckets.size(), 5u);
  EXPECT_EQ(snap.buckets[0], 2 * per);  // 0, 1
  EXPECT_EQ(snap.buckets[1], per);      // 2
  EXPECT_EQ(snap.buckets[2], 2 * per);  // 3, 4
  EXPECT_EQ(snap.buckets[3], 4 * per);  // 5..8
  EXPECT_EQ(snap.buckets[4], 7 * per);  // 9..15
  EXPECT_NEAR(snap.sum, static_cast<double>(per) * 120.0, 1e-9);  // Σ 0..15
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 15.0);

  // Every emitted event is one whole line: the emit mutex never let two
  // workers interleave bytes.
  EXPECT_EQ(tracer.events_emitted(), total);
  tracer.close();
  std::istringstream lines(trace_out.str());
  std::string line;
  std::uint64_t line_count = 0;
  while (std::getline(lines, line)) {
    ++line_count;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.substr(line.size() - 2), "}}");
  }
  EXPECT_EQ(line_count, total);
}

// Rapid tiny one-shot calls: each must run its body exactly n times even
// when the job is far smaller than a worker's start-up latency, so the
// caller often claims everything before a helper claims anything.
TEST(ParallelStressTest, RapidSmallJobsNeverLoseIndices) {
  constexpr std::size_t kCalls = 42;
  obs::Counter executed;
  for (std::size_t round = 0; round < kCalls; ++round) {
    const std::size_t n = 1 + round % 7;
    util::parallel_for(kThreads, n, [&](std::size_t) { executed.add(1); });
  }
  std::uint64_t expected = 0;
  for (std::size_t round = 0; round < kCalls; ++round) {
    expected += 1 + round % 7;
  }
  EXPECT_EQ(executed.value(), expected);
}

}  // namespace
}  // namespace sid
