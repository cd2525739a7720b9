// Radix-2 fast Fourier transform with a process-wide plan cache.
//
// Implemented from scratch (no external FFT dependency): iterative
// Cooley–Tukey with bit-reversal permutation. Sizes must be powers of two,
// which matches the paper's 2048-point STFT frames. power_spectrum
// returns only the non-redundant half of a real signal's spectrum.
//
// Plans: an FftPlan precomputes, per size, the bit-reversal permutation
// and the per-stage twiddle-factor tables that the transform kernel would
// otherwise rebuild on every call. The tables are generated with exactly
// the same recurrence the legacy kernel used (w_{k+1} = w_k * w_len,
// starting from 1), so plan-based transforms are bit-identical to the
// historical unplanned implementation — a property the plan-equivalence
// tests pin across sizes 8…4096. fft_plan() memoizes plans by size behind
// a mutex (plans are immutable after construction and safe to share
// across parallel_for workers); per-thread scratch buffers remove the
// remaining per-call allocation churn in power_spectrum and fft_convolve.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace sid::dsp {

/// True iff n is a power of two (and > 0).
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Precomputed transform plan for one power-of-two size: bit-reversal
/// permutation plus forward/inverse twiddle tables (one entry per
/// butterfly of every stage). Immutable after construction; a single plan
/// may be used concurrently from many threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// In-place transforms over `size()` contiguous complex values.
  /// Bit-identical to the legacy (table-free) kernel.
  void forward(std::complex<double>* data) const;
  /// Includes the 1/N normalization.
  void inverse(std::complex<double>* data) const;

 private:
  void transform(std::complex<double>* data, bool inverse) const;

  std::size_t n_;
  std::vector<std::size_t> bitrev_;  ///< bit-reversed partner of index i
  /// Stage tables packed end to end: stage len = 2, 4, …, n contributes
  /// len/2 twiddles at offset len/2 - 1.
  std::vector<std::complex<double>> fwd_twiddles_;
  std::vector<std::complex<double>> inv_twiddles_;
};

/// The process-wide plan for size n (power of two). Plans are built on
/// first use and cached forever — sizes are bounded by the longest trace,
/// so the cache stays small. Thread-safe.
const FftPlan& fft_plan(std::size_t n);

/// In-place complex FFT. `data.size()` must be a power of two.
void fft_inplace(std::vector<std::complex<double>>& data);

/// In-place inverse complex FFT (includes the 1/N normalization).
void ifft_inplace(std::vector<std::complex<double>>& data);

/// Forward FFT of a complex signal (copying).
std::vector<std::complex<double>> fft(
    std::span<const std::complex<double>> input);

/// Forward FFT of a real signal. Returns the full complex spectrum of
/// length equal to the (power-of-two) input length.
std::vector<std::complex<double>> fft_real(std::span<const double> input);

/// Inverse FFT returning the real part (for use after spectral products of
/// conjugate-symmetric data, e.g. fast convolution).
std::vector<double> ifft_real(std::span<const std::complex<double>> input);

/// One-sided magnitude-squared spectrum of a real signal: bins 0..N/2.
/// No window; callers that need leakage control window the frame first.
std::vector<double> power_spectrum(std::span<const double> input);

/// The frequency in Hz of one-sided bin k for an N-point transform at
/// `sample_rate_hz`.
double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz);

/// Linear convolution of two real sequences via FFT (zero-padded).
std::vector<double> fft_convolve(std::span<const double> a,
                                 std::span<const double> b);

}  // namespace sid::dsp
