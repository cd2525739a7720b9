// google-benchmark throughput of the DSP primitives: the on-node budget
// matters (iMote2-class hardware), so the kernels must be cheap.
//
// Every benchmark whose calls record a profile stage (filter, stft,
// wavelet) runs a pinned Iterations() count, so the stage invocation
// counts in the --json-out dump are the same on every host
// (scripts/bench_compare.py gates them); google-benchmark would otherwise
// size the counts by wall time. The FFT, Welch and power-spectrum
// benches record no stage and keep google-benchmark's own sizing.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json_main.h"
#include "dsp/fft.h"
#include "dsp/filter.h"
#include "dsp/spectrum.h"
#include "dsp/stft.h"
#include "dsp/wavelet.h"
#include "util/rng.h"

namespace {

std::vector<double> random_signal(std::size_t n, std::uint64_t seed = 1) {
  sid::util::Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.normal();
  return out;
}

void BM_FftReal(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::fft_real(signal));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftReal)->Arg(256)->Arg(1024)->Arg(2048)->Arg(8192);

void BM_FftConvolve(benchmark::State& state) {
  const auto a = random_signal(static_cast<std::size_t>(state.range(0)), 2);
  const auto b = random_signal(201, 3);  // FIR-tap-sized kernel
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::fft_convolve(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FftConvolve)->Arg(12000);

void BM_WelchPsd(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  sid::dsp::WelchConfig cfg;  // 1024-point segments, 512 overlap
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::welch_psd(signal, cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WelchPsd)->Arg(32768);

void BM_PowerSpectrum2048(benchmark::State& state) {
  const auto signal = random_signal(2048);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::power_spectrum(signal));
  }
}
BENCHMARK(BM_PowerSpectrum2048);

void BM_Stft(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  sid::dsp::StftConfig cfg;  // 2048-point frames, hop 1024
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::stft(signal, cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Stft)->Arg(8192)->Arg(32768)->Iterations(20);

void BM_MorletCwt(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  sid::dsp::CwtConfig cfg;
  cfg.num_scales = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::cwt_morlet(signal, cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MorletCwt)->Arg(2048)->Arg(8192)->Iterations(2);

void BM_CausalButterworth(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  auto sections = sid::dsp::butterworth_lowpass(4, 1.0, 50.0);
  sid::dsp::IirCascade cascade(sections);
  for (auto _ : state) {
    cascade.reset();
    benchmark::DoNotOptimize(cascade.process_all(signal));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CausalButterworth)->Arg(12000)->Iterations(200);

void BM_FiltFilt(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  auto sections = sid::dsp::butterworth_lowpass(4, 1.0, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::filtfilt(sections, signal));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FiltFilt)->Arg(12000)->Iterations(50);

void BM_FirFilter(benchmark::State& state) {
  const auto signal = random_signal(static_cast<std::size_t>(state.range(0)));
  const auto taps = sid::dsp::fir_lowpass_design(1.0, 50.0, 201);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sid::dsp::fir_filter(signal, taps));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FirFilter)->Arg(12000)->Iterations(10);

}  // namespace

int main(int argc, char** argv) {
  return sid_bench_main(argc, argv, "BENCH_dsp.json");
}
