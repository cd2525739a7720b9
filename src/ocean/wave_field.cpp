#include "ocean/wave_field.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numbers>

#include "util/check.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::ocean {

namespace {

// fdlibm's minimax polynomials for sin and cos on [-pi/4, pi/4] (k_sin.c,
// k_cos.c).
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

// Cody–Waite split of pi/2 (fdlibm's e_rem_pio2.c): each part has at most
// 33 significant bits, so q * part is exact for |q| < 2^20 (|x| up to about
// 1.6e6). The first subtraction is then exact, and the other two round
// only at the precision of the reduced argument.
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
constexpr double kPio2Hi = 1.57079632673412561417e+00;
constexpr double kPio2Mid = 6.07710050630396597660e-11;
constexpr double kPio2Lo = 2.02226624871116645580e-21;
// Adding 1.5 * 2^52 rounds any |v| < 2^51 to an integer whose low bits are
// the low mantissa bits of the sum.
constexpr double kRoundShift = 0x1.8p52;

// sin(x) and cos(x): a Cody–Waite reduction by pi/2 and fdlibm's
// polynomials. The one body `sincos_batch` and the block kernel inline.
[[gnu::always_inline]] inline void sincos_one(double x, double& sin_x,
                                              double& cos_x) {
  // x = q * pi/2 + r with q the nearest integer and |r| <= pi/4 (up to
  // rounding; the polynomials stay accurate just past pi/4).
  const double shifted = x * kTwoOverPi + kRoundShift;
  const double q = shifted - kRoundShift;
  const double r = ((x - q * kPio2Hi) - q * kPio2Mid) - q * kPio2Lo;
  const double z = r * r;
  const double w = z * z;
  const double sin_poly = kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
  const double v = z * r;
  const double sin_r = r + v * (kS1 + z * sin_poly);
  const double cos_poly =
      z * (kC1 + z * (kC2 + z * kC3)) + w * w * (kC4 + z * (kC5 + z * kC6));
  const double half_z = 0.5 * z;
  const double one_minus = 1.0 - half_z;
  const double cos_r =
      one_minus + (((1.0 - one_minus) - half_z) + z * cos_poly);
  // Quadrant q mod 4 from the low bits: odd q swaps sin and cos, q = 2, 3
  // negate sin and q = 1, 2 negate cos.
  const auto quadrant = std::bit_cast<std::uint64_t>(shifted);
  const std::uint64_t swap = 0 - (quadrant & 1);
  const auto sin_bits = std::bit_cast<std::uint64_t>(sin_r);
  const auto cos_bits = std::bit_cast<std::uint64_t>(cos_r);
  sin_x = std::bit_cast<double>(((sin_bits & ~swap) | (cos_bits & swap)) ^
                                ((quadrant & 2) << 62));
  cos_x = std::bit_cast<double>(((cos_bits & ~swap) | (sin_bits & swap)) ^
                                (((quadrant + 1) & 2) << 62));
}

// GCC on x86-64 Linux compiles the kernels below once per ISA and the
// dynamic loader picks the widest the host runs (an ifunc). Each clone
// computes the same bits only because src/CMakeLists.txt compiles with
// -ffp-contract=off: the avx512f clones would otherwise fuse multiply-adds
// (DESIGN.md §5g). Other compilers and targets compile the plain function,
// and so do ThreadSanitizer builds: GCC instruments the ifunc resolver,
// which the loader runs before the TSan runtime is up, and the program
// crashes at startup.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define SID_ISA_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define SID_ISA_CLONES
#endif

/// A field's component arrays, as the block kernels read them.
struct ComponentView {
  const double* amplitude_m;
  const double* omega;
  const double* wavenumber;
  const double* phase;
  const double* dir_cos;
  const double* dir_sin;
  std::size_t count;
};

/// Up to kSampleBlock samples in structure-of-arrays form: positions and
/// times in, accelerations out.
struct SampleBlock {
  std::array<double, kSampleBlock> x;
  std::array<double, kSampleBlock> y;
  std::array<double, kSampleBlock> t;
  std::array<double, kSampleBlock> ax;
  std::array<double, kSampleBlock> ay;
  std::array<double, kSampleBlock> az;
};

// The one acceleration formula. Components run in the outer loop and the
// first n samples of `b` in the inner one, so each sample starts its sums
// at 0 and adds components 0..N-1 in order with the same expressions as a
// one-sample call, while the inner loop vectorizes across samples.
template <bool kUseKernel>
[[gnu::always_inline]] inline void accumulate(const ComponentView& c,
                                              SampleBlock& b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    b.ax[j] = 0.0;
    b.ay[j] = 0.0;
    b.az[j] = 0.0;
  }
  for (std::size_t i = 0; i < c.count; ++i) {
    const double wavenumber = c.wavenumber[i];
    const double omega = c.omega[i];
    const double phase0 = c.phase[i];
    const double dir_cos = c.dir_cos[i];
    const double dir_sin = c.dir_sin[i];
    const double w2a = omega * omega * c.amplitude_m[i];
    for (std::size_t j = 0; j < n; ++j) {
      const double kx = wavenumber * (dir_cos * b.x[j] + dir_sin * b.y[j]);
      const double phase = kx - omega * b.t[j] + phase0;
      double sin_phase = 0.0;
      double cos_phase = 0.0;
      if constexpr (kUseKernel) {
        sincos_one(phase, sin_phase, cos_phase);
      } else {
        sin_phase = std::sin(phase);
        cos_phase = std::cos(phase);
      }
      // Airy theory at the surface (z = 0): vertical particle acceleration
      // -w^2 * A * cos(phase); horizontal +w^2 * A * sin(phase) along the
      // propagation direction.
      b.az[j] += -w2a * cos_phase;
      const double horizontal = w2a * sin_phase;
      b.ax[j] += horizontal * dir_cos;
      b.ay[j] += horizontal * dir_sin;
    }
  }
}

SID_ISA_CLONES void accumulate_kernel(const ComponentView& c, SampleBlock& b,
                                      std::size_t n) {
  accumulate<true>(c, b, n);
}

void accumulate_libm(const ComponentView& c, SampleBlock& b, std::size_t n) {
  accumulate<false>(c, b, n);
}

}  // namespace

SID_ISA_CLONES void sincos_batch(const double* __restrict phase,
                                 double* __restrict sin_out,
                                 double* __restrict cos_out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    sincos_one(phase[i], sin_out[i], cos_out[i]);
  }
}

double sample_spreading_offset(util::Rng& rng, double exponent) {
  util::require(exponent >= 0.0,
                "sample_spreading_offset: exponent must be non-negative");
  if (exponent == 0.0) {
    return rng.uniform(-std::numbers::pi / 2.0, std::numbers::pi / 2.0);
  }
  // Rejection sampling of p(theta) proportional to cos^{2s}(theta) on
  // (-pi/2, pi/2); the mode is at 0 with density 1. Acceptance probability
  // scales like 1/sqrt(s), so the attempt budget below (256) is hit with
  // probability < 1e-25 at the default s = 8 — default-seeded runs draw the
  // same values as the historical unbounded loop. For extreme exponents
  // the loop is no longer unbounded: we fall back to the best draw seen,
  // which is deterministic (pure function of the rng stream) and
  // concentrates near the mode exactly where the true density does.
  // The fallback ranks draws by cos(theta), not by the density itself:
  // cos^{2s} underflows to exactly 0.0 for most draws at extreme s, which
  // would reduce "best density" to "first draw seen". cos(theta) is a
  // strictly monotone proxy for the density and never underflows.
  constexpr int kMaxAttempts = 256;
  double best_theta = 0.0;
  double best_cos = -1.0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const double theta =
        rng.uniform(-std::numbers::pi / 2.0, std::numbers::pi / 2.0);
    const double cos_theta = std::cos(theta);
    const double density = std::pow(cos_theta, 2.0 * exponent);
    if (rng.uniform() < density) return theta;
    if (cos_theta > best_cos) {
      best_cos = cos_theta;
      best_theta = theta;
    }
  }
  return best_theta;
}

WaveField::WaveField(const WaveSpectrum& spectrum,
                     const WaveFieldConfig& config) {
  util::require(config.num_components > 0,
                "WaveField: need at least one component");
  util::require(config.min_frequency_hz > 0.0 &&
                    config.max_frequency_hz > config.min_frequency_hz,
                "WaveField: bad frequency range");

  util::Rng rng(config.seed);
  const double df = (config.max_frequency_hz - config.min_frequency_hz) /
                    static_cast<double>(config.num_components);
  for (std::size_t i = 0; i < config.num_components; ++i) {
    // Jitter the component frequency inside its bin to avoid periodicity
    // artifacts in long records.
    const double f = config.min_frequency_hz +
                     (static_cast<double>(i) + rng.uniform()) * df;
    const double s_f = spectrum.density(f);
    const double amplitude_m = std::sqrt(2.0 * s_f * df);
    const double omega = 2.0 * std::numbers::pi * f;
    const double direction_rad =
        config.mean_direction_rad +
        sample_spreading_offset(rng, config.spreading_exponent);
    // A non-finite amplitude here (negative spectral density, bad spectrum
    // parameters) would silently corrupt every downstream trace.
    SID_DCHECK(std::isfinite(amplitude_m) && amplitude_m >= 0.0,
               "WaveField: bad component amplitude at f=", f, " Hz");
    amplitude_m_.push_back(amplitude_m);
    omega_.push_back(omega);
    wavenumber_.push_back(omega * omega / util::kGravity);  // deep water
    direction_rad_.push_back(direction_rad);
    dir_cos_.push_back(std::cos(direction_rad));
    dir_sin_.push_back(std::sin(direction_rad));
    phase_.push_back(rng.angle());
    max_wavenumber_ = std::max(max_wavenumber_, wavenumber_.back());
    max_omega_ = std::max(max_omega_, omega);
  }
}

std::vector<WaveComponent> WaveField::components() const {
  std::vector<WaveComponent> out(omega_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = {.amplitude_m = amplitude_m_[i],
              .omega = omega_[i],
              .wavenumber = wavenumber_[i],
              .direction_rad = direction_rad_[i],
              .phase = phase_[i],
              .dir_cos = dir_cos_[i],
              .dir_sin = dir_sin_[i]};
  }
  return out;
}

bool WaveField::in_kernel_range(util::Vec2 p, double t) const {
  // Every phase is at most `bound` in magnitude.
  const double bound = max_wavenumber_ * (std::abs(p.x) + std::abs(p.y)) +
                       max_omega_ * std::abs(t) + 2.0 * std::numbers::pi;
  return bound <= kSinCosMaxPhase;
}

double WaveField::elevation(util::Vec2 p, double t) const {
  const bool use_kernel = in_kernel_range(p, t);
  double eta = 0.0;
  for (std::size_t i = 0; i < omega_.size(); ++i) {
    const double kx = wavenumber_[i] * (dir_cos_[i] * p.x + dir_sin_[i] * p.y);
    const double phase = kx - omega_[i] * t + phase_[i];
    double sin_phase = 0.0;
    double cos_phase = 0.0;
    if (use_kernel) {
      sincos_one(phase, sin_phase, cos_phase);
    } else {
      cos_phase = std::cos(phase);
    }
    eta += amplitude_m_[i] * cos_phase;
  }
  return eta;
}

Accel3 WaveField::acceleration(util::Vec2 p, double t) const {
  Accel3 a;
  acceleration(std::span(&p, 1), std::span(&t, 1), std::span(&a, 1));
  return a;
}

void WaveField::acceleration(std::span<const util::Vec2> p,
                             std::span<const double> t,
                             std::span<Accel3> out) const {
  util::require(t.size() == p.size() && out.size() == p.size(),
                "WaveField::acceleration: spans differ in size");
  const ComponentView components{.amplitude_m = amplitude_m_.data(),
                                 .omega = omega_.data(),
                                 .wavenumber = wavenumber_.data(),
                                 .phase = phase_.data(),
                                 .dir_cos = dir_cos_.data(),
                                 .dir_sin = dir_sin_.data(),
                                 .count = omega_.size()};
  // Stack buffers keep the call allocation-free and safe to share across
  // threads.
  SampleBlock block{};
  for (std::size_t begin = 0; begin < p.size(); begin += kSampleBlock) {
    const std::size_t n = std::min(kSampleBlock, p.size() - begin);
    std::size_t in_range = 0;
    for (std::size_t j = 0; j < n; ++j) {
      block.x[j] = p[begin + j].x;
      block.y[j] = p[begin + j].y;
      block.t[j] = t[begin + j];
      if (in_kernel_range(p[begin + j], t[begin + j])) ++in_range;
    }
    if (in_range == n) {
      accumulate_kernel(components, block, n);
    } else if (in_range == 0) {
      accumulate_libm(components, block, n);
    } else {
      // The range guard decides per sample: a block that straddles it
      // goes one sample at a time.
      for (std::size_t j = begin; j < begin + n; ++j) {
        acceleration(p.subspan(j, 1), t.subspan(j, 1), out.subspan(j, 1));
      }
      continue;
    }
    for (std::size_t j = 0; j < n; ++j) {
      out[begin + j] = {
          .ax = block.ax[j], .ay = block.ay[j], .az = block.az[j]};
    }
  }
}

double WaveField::elevation_variance() const {
  double var = 0.0;
  for (const double a : amplitude_m_) var += 0.5 * a * a;
  return var;
}

}  // namespace sid::ocean
