// google-benchmark throughput of the multi-modal extension (§VII):
// hydrophone contact synthesis and the sink's streaming MultiModalFuser
// (which records the fusion stage itself). Shares the perf_* harness
// (bench_json_main.h): --smoke dumps the per-stage wall-time histograms
// as schema-stable BENCH_acoustic_fusion.json (validated in CI by
// scripts/check_obs_schema.py, trended against bench/baselines/). Both
// benchmarks record a stage, so both pin Iterations(): the dump's
// invocation counts are then the same on every host.
//
// The scientific accuracy sweep for this extension lives in
// bench/fusion_ablation.cpp; this binary only tracks its cost.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "acoustic/hydrophone.h"
#include "bench_common.h"
#include "bench_json_main.h"
#include "core/fusion.h"
#include "obs/profile.h"
#include "shipwave/ship.h"
#include "util/rng.h"

namespace {

using namespace sid;

void BM_HydrophoneContactSweep(benchmark::State& state) {
  auto ship_cfg = bench::crossing_ship(10.0, 90.0, 0.0);
  ship_cfg.start_time_s = 15.0;
  const wake::ShipTrack track(ship_cfg);
  const std::vector<wake::ShipTrack> ships{track};
  acoustic::HydrophoneConfig cfg;
  cfg.seed = 101;
  const double duration_s = static_cast<double>(state.range(0));
  for (auto _ : state) {
    // The hydrophone model is front-end synthesis; record it under the
    // synthesis stage like the wave-field benches do.
    SID_PROFILE_STAGE(obs::Stage::kSynthesis);
    acoustic::Hydrophone phone({120.0, 0.0}, cfg);
    benchmark::DoNotOptimize(
        phone.run(ships, 0.0, duration_s, ocean::SeaState::kCalm));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HydrophoneContactSweep)->Arg(300)->Arg(1800)->Iterations(100);

void BM_MultiModalStreamingIngest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Pre-drawn jitter keeps the RNG off the measured path.
  util::Rng rng(11);
  std::vector<double> jitter(n);
  for (auto& j : jitter) j = rng.uniform(0.0, 25.0);
  for (auto _ : state) {
    core::MultiModalFuser fuser;
    double t = 100.0;
    for (std::size_t i = 0; i < n; ++i) {
      t += jitter[i];
      const auto modality =
          (i % 2 == 0) ? core::Modality::kAccel : core::Modality::kAcoustic;
      benchmark::DoNotOptimize(
          fuser.ingest(modality, t, 0.7, 0x1000 + i));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MultiModalStreamingIngest)->Arg(256)->Arg(4096)->Iterations(20);

}  // namespace

int main(int argc, char** argv) {
  return sid_bench_main(argc, argv, "BENCH_acoustic_fusion.json");
}
