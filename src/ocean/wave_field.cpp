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

}  // namespace

void sincos_batch(const double* __restrict phase, double* __restrict sin_out,
                  double* __restrict cos_out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double x = phase[i];
    // x = q * pi/2 + r with q the nearest integer and |r| <= pi/4 (up to
    // rounding; the polynomials stay accurate just past pi/4).
    const double shifted = x * kTwoOverPi + kRoundShift;
    const double q = shifted - kRoundShift;
    const double r = ((x - q * kPio2Hi) - q * kPio2Mid) - q * kPio2Lo;
    const double z = r * r;
    const double w = z * z;
    const double sin_poly =
        kS2 + z * (kS3 + z * kS4) + z * w * (kS5 + z * kS6);
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
    sin_out[i] = std::bit_cast<double>(
        ((sin_bits & ~swap) | (cos_bits & swap)) ^ ((quadrant & 2) << 62));
    cos_out[i] = std::bit_cast<double>(((cos_bits & ~swap) |
                                        (sin_bits & swap)) ^
                                       (((quadrant + 1) & 2) << 62));
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

template <typename Term>
void WaveField::for_each_phase(util::Vec2 p, double t, Term&& term) const {
  // The kernel runs over blocks of phases in stack buffers, which keeps
  // the call allocation-free and safe to share across threads.
  constexpr std::size_t kBlock = 64;
  std::array<double, kBlock> phase{};
  std::array<double, kBlock> sin_phase{};
  std::array<double, kBlock> cos_phase{};
  // Every phase below is at most `bound` in magnitude. A NaN p or t makes
  // the bound NaN, which fails the comparison and also takes libm.
  const double bound = max_wavenumber_ * (std::abs(p.x) + std::abs(p.y)) +
                       max_omega_ * std::abs(t) + 2.0 * std::numbers::pi;
  const bool use_kernel = bound <= kSinCosMaxPhase;
  const std::size_t n = omega_.size();
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t m = std::min(kBlock, n - begin);
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = begin + j;
      const double kx =
          wavenumber_[i] * (dir_cos_[i] * p.x + dir_sin_[i] * p.y);
      phase[j] = kx - omega_[i] * t + phase_[i];
    }
    if (use_kernel) {
      sincos_batch(phase.data(), sin_phase.data(), cos_phase.data(), m);
    } else {
      for (std::size_t j = 0; j < m; ++j) {
        sin_phase[j] = std::sin(phase[j]);
        cos_phase[j] = std::cos(phase[j]);
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      term(begin + j, sin_phase[j], cos_phase[j]);
    }
  }
}

double WaveField::elevation(util::Vec2 p, double t) const {
  double eta = 0.0;
  for_each_phase(p, t, [&](std::size_t i, double, double cos_phase) {
    eta += amplitude_m_[i] * cos_phase;
  });
  return eta;
}

Accel3 WaveField::acceleration(util::Vec2 p, double t) const {
  Accel3 a;
  for_each_phase(p, t, [&](std::size_t i, double sin_phase, double cos_phase) {
    const double w2a = omega_[i] * omega_[i] * amplitude_m_[i];
    // Airy theory at the surface (z = 0): vertical particle acceleration
    // -w^2 * A * cos(phase); horizontal +w^2 * A * sin(phase) along the
    // propagation direction.
    a.az += -w2a * cos_phase;
    const double horizontal = w2a * sin_phase;
    a.ax += horizontal * dir_cos_[i];
    a.ay += horizontal * dir_sin_[i];
  });
  return a;
}

double WaveField::vertical_acceleration(util::Vec2 p, double t) const {
  double az = 0.0;
  for_each_phase(p, t, [&](std::size_t i, double, double cos_phase) {
    az += -omega_[i] * omega_[i] * amplitude_m_[i] * cos_phase;
  });
  return az;
}

double WaveField::elevation_variance() const {
  double var = 0.0;
  for (const double a : amplitude_m_) var += 0.5 * a * a;
  return var;
}

}  // namespace sid::ocean
