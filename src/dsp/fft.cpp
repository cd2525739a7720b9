#include "dsp/fft.h"

#include <cmath>
#include <map>
#include <memory>
#include <numbers>

#include "util/error.h"
#include "util/thread_annotations.h"

namespace sid::dsp {

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  util::require(is_power_of_two(n), "fft: size must be a power of two");

  // Bit-reversal permutation, generated with the same incremental carry
  // walk the legacy kernel used (so the swap set is identical).
  bitrev_.resize(n);
  std::size_t j = 0;
  bitrev_[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }

  // Twiddle tables. Each stage's entries are produced by the exact
  // recurrence of the legacy kernel — w starts at (1, 0) and is repeatedly
  // multiplied by w_len — NOT by evaluating cos/sin per entry, so the
  // planned butterfly consumes bit-identical multipliers and the whole
  // transform matches the unplanned implementation to the last ulp.
  fwd_twiddles_.reserve(n > 0 ? n - 1 : 0);
  inv_twiddles_.reserve(n > 0 ? n - 1 : 0);
  for (int direction = 0; direction < 2; ++direction) {
    const bool inverse = direction == 1;
    auto& table = inverse ? inv_twiddles_ : fwd_twiddles_;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi /
                           static_cast<double>(len);
      const std::complex<double> wlen(std::cos(angle), std::sin(angle));
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
      }
    }
  }
}

void FftPlan::transform(std::complex<double>* data, bool inverse) const {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const std::complex<double>* table =
      (inverse ? inv_twiddles_ : fwd_twiddles_).data();
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n_; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + half] * table[k];
        data[i + k] = u + v;
        data[i + k + half] = u - v;
      }
    }
    table += half;
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= inv_n;
  }
}

void FftPlan::forward(std::complex<double>* data) const {
  transform(data, /*inverse=*/false);
}

void FftPlan::inverse(std::complex<double>* data) const {
  transform(data, /*inverse=*/true);
}

namespace {

/// Per-thread scratch: parallel_for workers each get their own buffers, so
/// planned transforms allocate nothing in steady state. Index 0/1 split
/// keeps fft_convolve's two operands apart.
std::vector<std::complex<double>>& scratch(std::size_t which, std::size_t n) {
  thread_local std::vector<std::complex<double>> buffers[2];
  auto& buf = buffers[which];
  buf.assign(n, std::complex<double>(0.0, 0.0));
  return buf;
}

/// Process-global plan cache. Plans are immutable once constructed, so
/// only the map itself needs the lock: find-or-create runs entirely under
/// mu_ (no check-then-act window), and the returned plan pointer is safe
/// to use lock-free forever (plans are never evicted; the cache is leaked
/// so worker threads may touch plans during static destruction).
class PlanCache {
 public:
  const FftPlan& get(std::size_t n) SID_EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    auto& slot = cache_[n];
    if (!slot) slot = std::make_unique<FftPlan>(n);
    return *slot;
  }

 private:
  util::Mutex mu_;
  std::map<std::size_t, std::unique_ptr<FftPlan>> cache_
      SID_GUARDED_BY(mu_);
};

}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  util::require(is_power_of_two(n), "fft: size must be a power of two");
  // Per-thread memo for the common same-size-again case. Safe without the
  // cache lock: the pointer is thread-local and the pointee immutable.
  thread_local const FftPlan* last = nullptr;
  if (last != nullptr && last->size() == n) return *last;
  static PlanCache* cache = new PlanCache();  // leaked deliberately
  last = &cache->get(n);
  return *last;
}

void fft_inplace(std::vector<std::complex<double>>& data) {
  fft_plan(data.size()).forward(data.data());
}

void ifft_inplace(std::vector<std::complex<double>>& data) {
  fft_plan(data.size()).inverse(data.data());
}

std::vector<std::complex<double>> fft(
    std::span<const std::complex<double>> input) {
  std::vector<std::complex<double>> data(input.begin(), input.end());
  fft_inplace(data);
  return data;
}

std::vector<std::complex<double>> fft_real(std::span<const double> input) {
  std::vector<std::complex<double>> data(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) data[i] = input[i];
  fft_inplace(data);
  return data;
}

std::vector<double> ifft_real(std::span<const std::complex<double>> input) {
  std::vector<std::complex<double>> data(input.begin(), input.end());
  ifft_inplace(data);
  std::vector<double> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) out[i] = data[i].real();
  return out;
}

std::vector<double> power_spectrum(std::span<const double> input) {
  // Full-size transform into per-thread scratch: bit-identical to the
  // legacy path (see FftPlan), allocation-free except for the returned
  // one-sided vector.
  const std::size_t n = input.size();
  auto& data = scratch(0, n);
  for (std::size_t i = 0; i < n; ++i) data[i] = input[i];
  fft_plan(n).forward(data.data());
  std::vector<double> power(n / 2 + 1);
  for (std::size_t k = 0; k < power.size(); ++k) {
    power[k] = std::norm(data[k]);
  }
  return power;
}

double bin_frequency(std::size_t k, std::size_t n, double sample_rate_hz) {
  util::require(n > 0, "bin_frequency: n must be positive");
  return sample_rate_hz * static_cast<double>(k) / static_cast<double>(n);
}

std::vector<double> fft_convolve(std::span<const double> a,
                                 std::span<const double> b) {
  util::require(!a.empty() && !b.empty(), "fft_convolve: empty input");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_power_of_two(out_len);
  const FftPlan& plan = fft_plan(n);
  auto& fa = scratch(0, n);
  auto& fb = scratch(1, n);
  for (std::size_t i = 0; i < a.size(); ++i) fa[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) fb[i] = b[i];
  plan.forward(fa.data());
  plan.forward(fb.data());
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  plan.inverse(fa.data());
  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = fa[i].real();
  return out;
}

}  // namespace sid::dsp
