// google-benchmark throughput of the detection stack: streaming node
// detector, correlation evaluation, speed inversion and wave-field
// synthesis (the simulation bottleneck).
//
// Every benchmark whose calls record a profile stage runs a pinned
// Iterations() count, so the stage invocation counts in the --json-out
// dump are the same on every host (scripts/bench_compare.py gates them);
// google-benchmark would otherwise size the counts by wall time.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bench_json_main.h"
#include "core/correlation.h"
#include "core/node_detector.h"
#include "core/scenario.h"
#include "core/speed_estimator.h"
#include "obs/profile.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "util/rng.h"
#include "util/units.h"
#include "wsn/network.h"

namespace {

using namespace sid;

void BM_NodeDetectorStream(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> samples(static_cast<std::size_t>(state.range(0)));
  for (auto& s : samples) s = 1024.0 + rng.normal(0.0, 30.0);
  for (auto _ : state) {
    // Streaming path bypasses process_trace, so record the stage here.
    SID_PROFILE_STAGE(obs::Stage::kDetector);
    core::NodeDetector detector{core::NodeDetectorConfig{}};
    double t = 0.0;
    for (double s : samples) {
      benchmark::DoNotOptimize(detector.process_sample(s, t));
      t += 0.02;
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NodeDetectorStream)->Arg(12000)->Arg(60000)->Iterations(2);

void BM_CorrelationEvaluate(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<wsn::DetectionReport> reports;
  const auto n_rows = static_cast<std::int32_t>(state.range(0));
  for (std::int32_t row = 0; row < n_rows; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      wsn::DetectionReport r;
      r.grid_row = row;
      r.grid_col = col;
      r.position = {25.0 * col, 25.0 * row};
      r.onset_local_time_s = 100.0 + rng.uniform(0.0, 30.0);
      r.average_energy = rng.uniform(10.0, 300.0);
      reports.push_back(r);
    }
  }
  const auto line = util::Line2::through({60.0, 0.0}, 1.55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_correlation(reports, line));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(reports.size()));
}
BENCHMARK(BM_CorrelationEvaluate)->Arg(4)->Arg(6)->Arg(20)
    ->Iterations(4000);

void BM_SpeedInversion(benchmark::State& state) {
  core::SpeedQuad quad;
  quad.t1 = 100.0;
  quad.t2 = 105.3;
  quad.t3 = 99.1;
  quad.t4 = 104.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::estimate_speed_either_pairing(quad, /*node_spacing_m=*/25.0));
  }
}
BENCHMARK(BM_SpeedInversion);

void BM_WaveFieldAcceleration(benchmark::State& state) {
  // One block of kSampleBlock samples along a drifting buoy's track, the
  // path generate_trace takes; the argument is the component count. The
  // block start cycles through the first hour, so every phase stays in
  // the kernel's range however many iterations run.
  const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kModerate);
  ocean::WaveFieldConfig cfg;
  cfg.num_components = static_cast<std::size_t>(state.range(0));
  const ocean::WaveField field(*spectrum, cfg);
  constexpr std::size_t kBlock = ocean::kSampleBlock;
  std::array<util::Vec2, kBlock> position{};
  std::array<double, kBlock> time{};
  std::array<ocean::Accel3, kBlock> accel{};
  for (std::size_t j = 0; j < kBlock; ++j) {
    position[j] = {12.0 + 1e-3 * static_cast<double>(j), 34.0};
  }
  double start = 0.0;
  for (auto _ : state) {
    for (std::size_t j = 0; j < kBlock; ++j) {
      time[j] = start + 0.02 * static_cast<double>(j);
    }
    field.acceleration(position, time, accel);
    benchmark::DoNotOptimize(accel.data());
    benchmark::ClobberMemory();
    start = start < 3600.0 ? start + 0.02 * static_cast<double>(kBlock) : 0.0;
  }
  state.counters["samples"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBlock),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WaveFieldAcceleration)->Arg(64)->Arg(160)->Arg(512);

void BM_ScenarioFrontEnd(benchmark::State& state) {
  // Whole per-node synthesis + detection front end, parameterized by the
  // worker-thread count (ScenarioConfig::threads). Results are
  // bit-identical at any count, so the ratio of the /1 and /4 variants is
  // a pure wall-clock speedup measurement for the deterministic pool.
  wsn::NetworkConfig ncfg;
  ncfg.rows = 4;
  ncfg.cols = 4;
  const wsn::Network net(ncfg);

  core::ScenarioConfig cfg;
  cfg.trace.duration_s = 120.0;
  cfg.threads = static_cast<std::size_t>(state.range(0));

  wake::ShipTrackConfig ship;
  ship.start = {30.0, -400.0};
  ship.heading_rad = util::deg_to_rad(88.0);
  ship.speed_mps = util::knots_to_mps(10.0);
  const std::vector<wake::ShipTrackConfig> ships{ship};

  for (auto _ : state) {
    benchmark::DoNotOptimize(core::simulate_node_reports(net, ships, cfg));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(net.node_count()));
}
BENCHMARK(BM_ScenarioFrontEnd)->Arg(1)->Arg(2)->Arg(4)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return sid_bench_main(argc, argv, "BENCH_detector.json");
}
