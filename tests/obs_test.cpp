// Observability layer: registry semantics, histogram math, JSONL trace
// schema, category filtering and the profiling hooks. The no-op
// (SID_METRICS_ENABLED=0) contract is exercised by obs_noop_test.cpp in
// the same binary.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/error.h"

namespace sid::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, FindOrCreateReturnsStableReferences) {
  Registry registry;
  Counter& a = registry.counter("net.tx");
  a.add(3);
  Counter& b = registry.counter("net.tx");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);

  // Creating more instruments must not invalidate earlier references.
  for (int i = 0; i < 100; ++i) {
    registry.counter("filler." + std::to_string(i));
  }
  a.add(1);
  EXPECT_EQ(registry.counter("net.tx").value(), 4u);
  EXPECT_EQ(registry.size(), 101u);
}

TEST(MetricsRegistryTest, FindersReturnNullForMissingNames) {
  Registry registry;
  registry.counter("a");
  registry.gauge("b");
  registry.histogram("c", {1.0});
  EXPECT_NE(registry.find_counter("a"), nullptr);
  EXPECT_EQ(registry.find_counter("missing"), nullptr);
  EXPECT_EQ(registry.find_gauge("a"), nullptr);
  EXPECT_NE(registry.find_gauge("b"), nullptr);
  EXPECT_NE(registry.find_histogram("c"), nullptr);
}

TEST(MetricsRegistryTest, RejectsCrossKindNameReuse) {
  Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), util::InvalidArgument);
  EXPECT_THROW(registry.histogram("x", {1.0}), util::InvalidArgument);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), util::InvalidArgument);
}

TEST(MetricsRegistryTest, ResetZeroesEverythingButKeepsLayout) {
  Registry registry;
  registry.counter("c").add(7);
  registry.gauge("g").set(2.5);
  Histogram& h = registry.histogram("h", {1.0, 10.0});
  h.record(0.5);
  h.record(5.0);
  registry.reset();
  EXPECT_EQ(registry.counter("c").value(), 0u);
  EXPECT_EQ(registry.gauge("g").value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bounds().size(), 2u);
  EXPECT_EQ(h.bucket_counts().size(), 3u);
}

// --------------------------------------------------------------- histogram

TEST(HistogramTest, CountsSumAndBuckets) {
  Histogram h({1.0, 10.0, 100.0}, Histogram::Clock::kSim);
  for (double v : {0.5, 0.7, 5.0, 50.0, 500.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.2);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  EXPECT_DOUBLE_EQ(h.mean(), 556.2 / 5.0);
  const std::vector<std::uint64_t> expected{2, 1, 1, 1};
  EXPECT_EQ(h.bucket_counts(), expected);
}

TEST(HistogramTest, PercentilesStayInsideObservedRange) {
  Histogram h({1.0, 10.0, 100.0}, Histogram::Clock::kSim);
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.record(5.0);
  h.record(99.0);
  EXPECT_GE(h.percentile(0.0), 5.0 - 1e-12);
  EXPECT_LE(h.percentile(0.5), 10.0);
  EXPECT_LE(h.percentile(1.0), 99.0 + 1e-12);
  EXPECT_THROW(h.percentile(1.5), util::InvalidArgument);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}, Histogram::Clock::kSim),
               util::InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}, Histogram::Clock::kSim),
               util::InvalidArgument);
}

// ------------------------------------------------------------- JSON dumps

TEST(MetricsJsonTest, DumpSeparatesSimAndWallClockDomains) {
  Registry registry;
  registry.counter("net.tx").add(2);
  registry.gauge("energy.total_mj").set(1.5);
  registry.histogram("lat_s", {1.0}).record(0.3);
  registry.histogram("wall_ns", {1e6}, Histogram::Clock::kWall).record(5e5);

  const std::string det = registry.to_json(/*include_wall=*/false);
  EXPECT_NE(det.find("\"schema\":\"sid-metrics-v1\""), std::string::npos);
  EXPECT_NE(det.find("\"net.tx\":2"), std::string::npos);
  EXPECT_NE(det.find("\"lat_s\""), std::string::npos);
  EXPECT_EQ(det.find("profile"), std::string::npos);
  EXPECT_EQ(det.find("wall_ns"), std::string::npos);

  const std::string full = registry.to_json(/*include_wall=*/true);
  EXPECT_NE(full.find("\"profile\":{"), std::string::npos);
  EXPECT_NE(full.find("\"wall_ns\""), std::string::npos);
  EXPECT_NE(full.find("\"p50\""), std::string::npos);
  EXPECT_NE(full.find("\"le\":\"inf\""), std::string::npos);
}

TEST(MetricsJsonTest, WallOverlayFoldsASecondRegistryIntoProfile) {
  Registry sim;
  sim.counter("c").add(1);
  Registry wall;
  wall.histogram("profile.stage_ns", {1e6}, Histogram::Clock::kWall)
      .record(2e5);
  const std::string merged = sim.to_json(true, &wall);
  EXPECT_NE(merged.find("\"profile.stage_ns\""), std::string::npos);
  // The overlay contributes only wall histograms, never counters.
  EXPECT_EQ(sim.to_json(false).find("profile.stage_ns"), std::string::npos);
}

TEST(MetricsJsonTest, IdenticalContentsProduceIdenticalText) {
  auto build = [] {
    Registry registry;
    registry.counter("a").add(3);
    registry.gauge("g").set(0.1);  // not exactly representable
    auto& h = registry.histogram("h", {0.5, 5.0});
    h.record(0.1);
    h.record(3.7);
    return registry.to_json(false);
  };
  EXPECT_EQ(build(), build());
}

// ------------------------------------------------------------------ trace

TEST(TraceTest, EmitsOneJsonObjectPerLine) {
  std::ostringstream sink;
  Tracer tracer;
  FlightRecorder recorder(8);
  tracer.attach(&sink, kAllCategories);
  tracer.set_recorder(&recorder);
  tracer.emit(Category::kNet, "msg_tx", 1.5,
              {{"src", 3}, {"bytes", std::size_t{41}}, {"ok", true}});
  tracer.emit(Category::kSink, "decision", 2.25,
              {{"note", "say \"hi\""}, {"corr", 0.75}});
  tracer.emit_span(Category::kNode, "span_origin", 3.0, 0.125, 0xabcULL,
                   {{"hop", -2}, {"last", false}});
  tracer.close();
  EXPECT_EQ(tracer.events_emitted(), 3u);

  std::istringstream in(sink.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].find("{\"t\":"), 0u);
  EXPECT_NE(lines[0].find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"name\":\"msg_tx\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"src\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"bytes\":41"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  // String values are escaped, doubles are round-trip formatted.
  EXPECT_NE(lines[1].find("say \\\"hi\\\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"corr\":0.75"), std::string::npos);
  // The flight recorder promises the exact Tracer line format: its dump,
  // minus the header, repeats the trace byte for byte.
  std::ostringstream dump;
  recorder.dump(dump);
  const std::string text = dump.str();
  EXPECT_EQ(text.substr(text.find('\n') + 1), sink.str());
}

TEST(TraceTest, DisabledCategoriesAreFilteredOut) {
  std::ostringstream sink;
  Tracer tracer;
  tracer.attach(&sink, parse_category_list("net,sink"));
  EXPECT_TRUE(tracer.enabled(Category::kNet));
  EXPECT_TRUE(tracer.enabled(Category::kSink));
  EXPECT_FALSE(tracer.enabled(Category::kFault));
  tracer.emit(Category::kFault, "burst_loss", 1.0, {});
  tracer.emit(Category::kNet, "msg_tx", 2.0, {});
  EXPECT_EQ(tracer.events_emitted(), 1u);
}

TEST(TraceTest, DefaultConstructedTracerIsDisabled) {
  Tracer tracer;
  for (unsigned bit = 0; bit < 7; ++bit) {
    EXPECT_FALSE(tracer.enabled(static_cast<Category>(1U << bit)));
  }
  tracer.emit(Category::kNet, "ignored", 0.0, {});
  EXPECT_EQ(tracer.events_emitted(), 0u);
}

TEST(TraceTest, DefenseCategoryRoundTrips) {
  EXPECT_EQ(category_name(Category::kDefense), "defense");
  EXPECT_EQ(parse_category("defense"), Category::kDefense);
  EXPECT_EQ(parse_category_list("defense,net"),
            static_cast<unsigned>(Category::kDefense) |
                static_cast<unsigned>(Category::kNet));
  EXPECT_NE(kAllCategories & static_cast<unsigned>(Category::kDefense), 0u);
}

TEST(TraceTest, EmitSpanWritesSpanObjectBetweenNameAndArgs) {
  std::ostringstream sink;
  Tracer tracer;
  tracer.attach(&sink, kAllCategories);
  tracer.emit_span(Category::kNet, "span_hop", 1.25, 0.5, 0xabcULL,
                   {{"flight", 7u}, {"from", 3}});
  tracer.close();
  EXPECT_EQ(tracer.events_emitted(), 1u);
  const std::string line = sink.str();
  EXPECT_EQ(line.find("{\"t\":1.25,"), 0u);
  // The id is zero-padded 16-digit lowercase hex; dur round-trips %.17g.
  EXPECT_NE(
      line.find("\"span\":{\"id\":\"0000000000000abc\",\"dur\":0.5}"),
      std::string::npos);
  EXPECT_NE(line.find("\"name\":\"span_hop\""), std::string::npos);
  EXPECT_NE(line.find("\"flight\":7"), std::string::npos);
}

TEST(TraceTest, EmitSpanRespectsCategoryMask) {
  std::ostringstream sink;
  Tracer tracer;
  tracer.attach(&sink, parse_category_list("sink"));
  tracer.emit_span(Category::kNet, "span_hop", 1.0, 0.5, 42, {});
  EXPECT_EQ(tracer.events_emitted(), 0u);
  EXPECT_TRUE(sink.str().empty());
}

TEST(TraceTest, ParseCategoryList) {
  EXPECT_EQ(parse_category_list("all"), kAllCategories);
  EXPECT_EQ(parse_category_list(""), kAllCategories);
  EXPECT_EQ(parse_category_list("net"),
            static_cast<unsigned>(Category::kNet));
  EXPECT_EQ(parse_category_list("net,fault"),
            static_cast<unsigned>(Category::kNet) |
                static_cast<unsigned>(Category::kFault));
  EXPECT_THROW(parse_category_list("net,bogus"), util::InvalidArgument);
}

// --------------------------------------------------------- flight recorder

TEST(FlightRecorderTest, RingEvictsOldestAndKeepsTotalCount) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.record(Category::kNet, "event_" + std::to_string(i),
                    static_cast<double>(i), {{"index", i}});
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.capacity(), 4u);
  EXPECT_EQ(recorder.recorded_total(), 10u);

  std::ostringstream os;
  recorder.dump(os, "unit");
  const std::string dump = os.str();
  EXPECT_EQ(dump.find("{\"schema\":\"sid-flightrec-v1\",\"reason\":\"unit\","
                      "\"capacity\":4,\"recorded\":10,\"events\":4}"),
            0u);
  // Only the newest four survive, oldest first.
  EXPECT_EQ(dump.find("\"name\":\"event_5\""), std::string::npos);
  const std::size_t first = dump.find("\"name\":\"event_6\"");
  const std::size_t last = dump.find("\"name\":\"event_9\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded_total(), 0u);
}

TEST(FlightRecorderTest, TruncatesLongNamesAndStringsWithoutAllocation) {
  FlightRecorder recorder(2);
  const std::string long_name(64, 'n');
  const std::string long_value(64, 'v');
  recorder.record(Category::kFault, long_name, 1.0,
                  {{"detail", std::string_view(long_value)}});
  std::ostringstream os;
  recorder.dump(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"name\":\"" +
                      std::string(FlightRecorder::kNameChars, 'n') + "\""),
            std::string::npos);
  EXPECT_EQ(dump.find(std::string(FlightRecorder::kNameChars + 1, 'n')),
            std::string::npos);
  EXPECT_NE(dump.find(std::string(FlightRecorder::kStringChars, 'v')),
            std::string::npos);
  EXPECT_EQ(dump.find(std::string(FlightRecorder::kStringChars + 1, 'v')),
            std::string::npos);
}

TEST(FlightRecorderTest, TracerFeedsRecorderEvenWhenStreamIsUnarmed) {
  Tracer tracer;
  FlightRecorder recorder(8);
  tracer.set_recorder(&recorder);
  // The recorder makes every category "hot" even with no JSONL stream.
  EXPECT_FALSE(tracer.active());
  EXPECT_TRUE(tracer.hot(Category::kNet));
  tracer.emit(Category::kNet, "quiet", 1.0, {{"a", 1}});
  tracer.emit_span(Category::kNode, "span_origin", 2.0, 0.0, 42, {});
  EXPECT_EQ(tracer.events_emitted(), 0u);
  EXPECT_EQ(recorder.size(), 2u);

  std::ostringstream os;
  recorder.dump(os);
  // Span records keep their span object through the ring.
  EXPECT_NE(os.str().find("\"span\":{\"id\":\"000000000000002a\","
                          "\"dur\":0}"),
            std::string::npos);
  tracer.set_recorder(nullptr);
  tracer.emit(Category::kNet, "dropped", 3.0, {});
  EXPECT_EQ(recorder.size(), 2u);
}

TEST(FlightRecorderTest, AutoDumpWritesArmedPathAndIsNoopWhenDisarmed) {
  const std::string path = testing::TempDir() + "sid_flightrec_auto.jsonl";
  std::remove(path.c_str());
  FlightRecorder recorder(4);
  recorder.record(Category::kNet, "snapshot_me", 1.0, {});
  recorder.auto_dump("quarantine");  // disarmed: no file
  EXPECT_FALSE(std::ifstream(path).good());

  recorder.set_auto_dump_path(path);
  recorder.auto_dump("quarantine");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"reason\":\"quarantine\""),
            std::string::npos);
  EXPECT_NE(contents.str().find("\"name\":\"snapshot_me\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, CheckFailureDumpsRingBeforeAbort) {
  FlightRecorder recorder(8);
  recorder.record(Category::kFault, "flightrec_death_marker", 1.0,
                  {{"detail", "last_moments"}});
  recorder.install_crash_dump();  // empty path: dump to stderr
  EXPECT_DEATH(SID_CHECK(1 + 1 == 3, "armed for the death test"),
               "flightrec_death_marker");
  // Drop the hook so later (hypothetical) aborts in this binary cannot
  // touch the recorder after it goes out of scope.
  util::set_crash_hook(nullptr);
}

// --------------------------------------------------------------- telemetry

TEST(TelemetryTest, SamplesRegistryScalarsIntoBoundedRows) {
  Registry registry;
  Counter& counter = registry.counter("tele.count");
  Gauge& gauge = registry.gauge("tele.gauge");
  TelemetryConfig config;
  config.interval_s = 1.0;
  config.capacity = 2;
  TelemetrySampler sampler(registry, config);

  counter.add(1);
  sampler.sample(1.0);
  counter.add(2);
  gauge.set(0.5);
  sampler.sample(2.0);
  counter.add(3);
  sampler.sample(3.0);

  EXPECT_EQ(sampler.size(), 2u);  // capacity 2: the t=1 row was evicted
  EXPECT_EQ(sampler.samples_taken(), 3u);

  std::ostringstream os;
  sampler.dump_jsonl(os);
  const std::string dump = os.str();
  EXPECT_EQ(dump.find("{\"schema\":\"sid-telemetry-v1\",\"interval_s\":1,"
                      "\"samples\":3,\"rows\":2,"),
            0u);
  EXPECT_NE(dump.find("\"counters\":[\"tele.count\"]"), std::string::npos);
  EXPECT_NE(dump.find("\"gauges\":[\"tele.gauge\"]"), std::string::npos);
  EXPECT_EQ(dump.find("{\"t\":1,"), std::string::npos);
  EXPECT_NE(dump.find("{\"t\":2,\"counters\":{\"tele.count\":3},"
                      "\"gauges\":{\"tele.gauge\":0.5}}"),
            std::string::npos);
  EXPECT_NE(dump.find("{\"t\":3,\"counters\":{\"tele.count\":6},"),
            std::string::npos);

  sampler.clear();
  EXPECT_EQ(sampler.size(), 0u);
  EXPECT_EQ(sampler.samples_taken(), 0u);
}

TEST(TelemetryTest, RowsTakenBeforeAnInstrumentExistedStayValid) {
  Registry registry;
  registry.counter("early.count").add(4);
  TelemetryConfig config;
  config.interval_s = 5.0;
  TelemetrySampler sampler(registry, config);
  sampler.sample(5.0);
  registry.counter("late.count").add(9);
  sampler.sample(10.0);

  std::ostringstream os;
  sampler.dump_jsonl(os);
  const std::string dump = os.str();
  // The header names both counters; the early row truncates to the one
  // value it actually captured.
  EXPECT_NE(dump.find("\"counters\":[\"early.count\",\"late.count\"]"),
            std::string::npos);
  EXPECT_NE(dump.find("{\"t\":5,\"counters\":{\"early.count\":4},"),
            std::string::npos);
  EXPECT_NE(dump.find(
                "{\"t\":10,\"counters\":{\"early.count\":4,\"late.count\":9}"),
            std::string::npos);
}

TEST(TelemetryTest, RejectsNonPositiveInterval) {
  Registry registry;
  TelemetryConfig config;
  config.interval_s = 0.0;
  EXPECT_THROW(TelemetrySampler(registry, config), util::InvalidArgument);
}

// ---------------------------------------------------------------- profile

#if SID_METRICS_ENABLED
TEST(ProfileTest, ScopedTimerRecordsIntoStageHistogram) {
  reset_profile();
  {
    SID_PROFILE_STAGE(Stage::kFilter);
  }
  {
    SID_PROFILE_STAGE(Stage::kFilter);
    SID_PROFILE_STAGE(Stage::kStft);  // distinct variable via __LINE__
  }
  EXPECT_EQ(stage_histogram(Stage::kFilter).count(), 2u);
  EXPECT_EQ(stage_histogram(Stage::kStft).count(), 1u);
  EXPECT_EQ(stage_histogram(Stage::kWavelet).count(), 0u);
  EXPECT_EQ(stage_histogram(Stage::kFilter).clock(),
            Histogram::Clock::kWall);
  reset_profile();
  EXPECT_EQ(stage_histogram(Stage::kFilter).count(), 0u);
}
#endif  // SID_METRICS_ENABLED

TEST(ProfileTest, StageNamesAndRegistryEntriesLineUp) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(Stage::kCount); ++i) {
    const auto stage = static_cast<Stage>(i);
    const std::string expected =
        "profile." + std::string(stage_name(stage)) + "_ns";
    // stage_histogram() registers lazily — touch it first so the check
    // also holds in the metrics-off build, where no macro ever does.
    Histogram& h = stage_histogram(stage);
    EXPECT_EQ(&h, profile_registry().find_histogram(expected)) << expected;
  }
  EXPECT_EQ(stage_name(Stage::kEventDispatch), "event_dispatch");
  EXPECT_EQ(stage_name(Stage::kRouting), "routing");
}

}  // namespace
}  // namespace sid::obs
