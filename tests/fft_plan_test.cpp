// Plan-cache equivalence gate.
//
// The FFT plan cache (dsp/fft.h) promises that planned transforms are
// bit-identical to the historical table-free kernel: the twiddle tables
// are generated with the same w *= w_len recurrence the old inner loop
// ran, so every butterfly consumes the same multipliers in the same
// order. These tests freeze the old kernel verbatim as a reference and
// compare digests across sizes 8…4096 — for the raw transforms and for
// the composite users (power_spectrum, fft_convolve, welch_psd, stft).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <span>
#include <vector>

#include "dsp/fft.h"
#include "dsp/spectrum.h"
#include "dsp/stft.h"
#include "dsp/window.h"
#include "util/rng.h"

namespace sid {
namespace {

// ----------------------------------------------------- legacy reference
// Copied from the pre-plan dsp/fft.cpp. Do not "improve": its rounding
// sequence IS the contract the plan must reproduce.

namespace legacy {

void bit_reverse_permute(std::vector<std::complex<double>>& data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

void fft_core(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  bit_reverse_permute(data);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                         static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= inv_n;
  }
}

std::vector<std::complex<double>> fft_real(std::span<const double> input) {
  std::vector<std::complex<double>> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) data[i] = input[i];
  fft_core(data, false);
  return data;
}

std::vector<double> power_spectrum(std::span<const double> input) {
  const auto spectrum = fft_real(input);
  std::vector<double> power(spectrum.size() / 2 + 1);
  for (std::size_t k = 0; k < power.size(); ++k) {
    power[k] = std::norm(spectrum[k]);
  }
  return power;
}

std::vector<double> fft_convolve(std::span<const double> a,
                                 std::span<const double> b) {
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = dsp::next_power_of_two(out_len);
  std::vector<std::complex<double>> fa(n), fb(n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  fft_core(fa, false);
  fft_core(fb, false);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  fft_core(fa, true);
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

/// Welch PSD exactly as spectrum.cpp computed it before the plan cache:
/// per-segment windowed copy then the legacy power spectrum.
dsp::PsdEstimate welch_psd(std::span<const double> signal,
                           const dsp::WelchConfig& config) {
  const std::size_t hop = config.segment_size - config.overlap;
  const auto w = dsp::make_window(config.window, config.segment_size);
  const double norm = dsp::window_power(w) * config.sample_rate_hz;
  dsp::PsdEstimate out;
  out.psd.assign(config.segment_size / 2 + 1, 0.0);
  for (std::size_t start = 0; start + config.segment_size <= signal.size();
       start += hop) {
    const auto windowed =
        dsp::apply_window(signal.subspan(start, config.segment_size), w);
    const auto power = power_spectrum(windowed);
    for (std::size_t k = 0; k < power.size(); ++k) {
      const double scale = (k == 0 || k == power.size() - 1) ? 1.0 : 2.0;
      out.psd[k] += scale * power[k] / norm;
    }
    ++out.segments_averaged;
  }
  const auto segments = static_cast<double>(out.segments_averaged);
  for (auto& p : out.psd) p /= segments;
  out.frequency_hz.resize(out.psd.size());
  for (std::size_t k = 0; k < out.frequency_hz.size(); ++k) {
    out.frequency_hz[k] =
        dsp::bin_frequency(k, config.segment_size, config.sample_rate_hz);
  }
  return out;
}

}  // namespace legacy

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal(0.0, 1.0);
  return x;
}

std::vector<std::complex<double>> random_complex(std::size_t n,
                                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::complex<double>> x(n);
  for (auto& v : x) v = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
  return x;
}

constexpr std::size_t kSizes[] = {8, 16, 32, 64, 128, 256, 512,
                                  1024, 2048, 4096};

// ------------------------------------------------ raw transform identity

TEST(FftPlanTest, ForwardMatchesLegacyBitForBit) {
  for (const std::size_t n : kSizes) {
    auto planned = random_complex(n, 100 + n);
    auto reference = planned;
    dsp::fft_inplace(planned);
    legacy::fft_core(reference, false);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(planned[i].real(), reference[i].real()) << "n=" << n;
      ASSERT_EQ(planned[i].imag(), reference[i].imag()) << "n=" << n;
    }
  }
}

TEST(FftPlanTest, InverseMatchesLegacyBitForBit) {
  for (const std::size_t n : kSizes) {
    auto planned = random_complex(n, 200 + n);
    auto reference = planned;
    dsp::ifft_inplace(planned);
    legacy::fft_core(reference, true);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(planned[i].real(), reference[i].real()) << "n=" << n;
      ASSERT_EQ(planned[i].imag(), reference[i].imag()) << "n=" << n;
    }
  }
}

// ------------------------------------------------ composite-user identity

TEST(FftPlanTest, PowerSpectrumMatchesLegacyBitForBit) {
  for (const std::size_t n : kSizes) {
    const auto x = random_signal(n, 300 + n);
    EXPECT_EQ(dsp::power_spectrum(x), legacy::power_spectrum(x)) << "n=" << n;
  }
}

TEST(FftPlanTest, FftConvolveMatchesLegacyBitForBit) {
  // Unequal, non-power-of-two lengths exercise the zero-padded pad-to-pow2
  // path the filters rely on (FIR via fft_convolve).
  const std::size_t lens[][2] = {{5, 3}, {64, 17}, {1000, 201}, {4096, 129}};
  for (const auto& [la, lb] : lens) {
    const auto a = random_signal(la, 400 + la);
    const auto b = random_signal(lb, 500 + lb);
    EXPECT_EQ(dsp::fft_convolve(a, b), legacy::fft_convolve(a, b))
        << "la=" << la << " lb=" << lb;
  }
}

TEST(FftPlanTest, WelchPsdMatchesLegacyBitForBit) {
  const auto x = random_signal(10'000, 77);
  dsp::WelchConfig cfg;
  cfg.segment_size = 1024;
  cfg.overlap = 512;
  const auto planned = dsp::welch_psd(x, cfg);
  const auto reference = legacy::welch_psd(x, cfg);
  EXPECT_EQ(planned.psd, reference.psd);
  EXPECT_EQ(planned.frequency_hz, reference.frequency_hz);
  EXPECT_EQ(planned.segments_averaged, reference.segments_averaged);
}

TEST(FftPlanTest, StftMatchesPerFrameCompositionBitForBit) {
  // stft() hoists the window out of the frame loop; every frame must
  // still equal the one-shot frame_power_spectrum of the same samples.
  const auto x = random_signal(12'000, 88);
  dsp::StftConfig cfg;
  const auto gram = dsp::stft(x, cfg);
  ASSERT_FALSE(gram.frames.empty());
  for (std::size_t f = 0; f < gram.frames.size(); ++f) {
    const auto expected = dsp::frame_power_spectrum(
        std::span<const double>(x).subspan(f * cfg.hop, cfg.frame_size),
        cfg.window);
    EXPECT_EQ(gram.frames[f].power, expected) << "frame " << f;
  }
}

TEST(FftPlanTest, PlanRejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::fft_plan(0), std::exception);
  EXPECT_THROW(dsp::fft_plan(12), std::exception);
  EXPECT_NO_THROW(dsp::fft_plan(16));
}

}  // namespace
}  // namespace sid
