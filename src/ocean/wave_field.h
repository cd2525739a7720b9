// Random-phase linear (Airy) wave field synthesis.
//
// The sea surface is the sum of N sinusoidal components whose amplitudes
// follow a target variance spectrum, with random phases and directions
// drawn from a cos^{2s} spreading function. Deep-water dispersion
// (omega^2 = g*k) links frequency and wavenumber. The field is evaluated
// at arbitrary (position, time), giving elevation plus the surface-level
// particle accelerations a buoy riding the surface experiences — the
// quantity the paper's accelerometer actually measures.
//
// Every evaluation turns one phase per component into a sine and a cosine
// with a vectorizable kernel that agrees with libm to within 2^-51 for
// |phase| <= kSinCosMaxPhase; samples whose phases could exceed that range
// use std::sin/std::cos instead. Accelerations are evaluated over blocks
// of samples, vectorized across the samples of a block, with the bits of
// a one-sample evaluation (DESIGN.md §5g).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ocean/wave_spectrum.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace sid::ocean {

/// Surface-level particle acceleration in m/s^2 (x east, y north, z up;
/// z excludes gravity).
struct Accel3 {
  double ax = 0.0;
  double ay = 0.0;
  double az = 0.0;
};

struct WaveFieldConfig {
  std::size_t num_components = 160;
  double min_frequency_hz = 0.03;
  /// Extends well past 1 Hz so the raw trace carries realistic wind chop
  /// (the paper's Fig. 5 shows hundreds of counts of fast fluctuation);
  /// the node detector's 1 Hz low-pass removes it.
  double max_frequency_hz = 3.0;
  /// cos^{2s} directional spreading exponent; larger = narrower spread.
  double spreading_exponent = 8.0;
  /// Mean wave travel direction, radians from +x.
  double mean_direction_rad = 0.0;
  std::uint64_t seed = 1;
};

/// One spectral component of the synthesized field.
struct WaveComponent {
  double amplitude_m = 0.0;
  double omega = 0.0;        ///< angular frequency, rad/s
  double wavenumber = 0.0;   ///< rad/m (deep water: omega^2 / g)
  double direction_rad = 0.0;
  double phase = 0.0;        ///< random phase offset
  /// cos/sin of direction_rad, computed once at construction so the
  /// per-sample evaluation loops don't re-evaluate them (the hot path runs
  /// them num_components times per sample).
  double dir_cos = 1.0;
  double dir_sin = 0.0;
};

/// Largest |phase| (rad) for which `sincos_batch` is validated against
/// libm: about 14 h of trace at the 3 Hz top component.
inline constexpr double kSinCosMaxPhase = 1e6;

/// Samples the block form of `WaveField::acceleration` evaluates at once
/// (and `generate_trace` steps its buoy through per block).
inline constexpr std::size_t kSampleBlock = 64;

/// Writes sin(phase[i]) and cos(phase[i]) for i < n. Within 2^-51 of
/// std::sin/std::cos for |phase[i]| <= kSinCosMaxPhase (a Cody–Waite
/// reduction by pi/2 and fdlibm's polynomials); less accurate beyond.
/// Plain IEEE arithmetic in a fixed order, so a vectorized build computes
/// the same bits as a scalar one. The arrays must not overlap.
void sincos_batch(const double* phase, double* sin_out, double* cos_out,
                  std::size_t n);

class WaveField {
 public:
  /// Samples `config.num_components` components from `spectrum`.
  WaveField(const WaveSpectrum& spectrum, const WaveFieldConfig& config);

  /// Surface elevation (m) at position `p` and time `t` (s).
  double elevation(util::Vec2 p, double t) const;

  /// Surface particle acceleration at `p`, `t` (deep-water Airy theory,
  /// evaluated at the mean surface level): the block form with n = 1.
  Accel3 acceleration(util::Vec2 p, double t) const;

  /// Block form: out[j] = acceleration(p[j], t[j]) for every j, bit for
  /// bit. Each sample sums its components 0..N-1 in order; the loop over
  /// the samples of a block is the one that vectorizes. The spans must
  /// have equal sizes.
  void acceleration(std::span<const util::Vec2> p, std::span<const double> t,
                    std::span<Accel3> out) const;

  /// The components, assembled from the per-field arrays.
  std::vector<WaveComponent> components() const;

  /// Theoretical variance of the synthesized elevation:
  /// sum of A_i^2 / 2.
  double elevation_variance() const;

 private:
  /// True when every component phase at `p`, `t` lies within
  /// kSinCosMaxPhase, so the kernel may evaluate it. A NaN `p` or `t`
  /// fails the test and takes libm.
  bool in_kernel_range(util::Vec2 p, double t) const;

  // One array per WaveComponent field (structure of arrays), so the phase
  // and sin/cos loops vectorize.
  std::vector<double> amplitude_m_;
  std::vector<double> omega_;
  std::vector<double> wavenumber_;
  std::vector<double> direction_rad_;
  std::vector<double> phase_;
  std::vector<double> dir_cos_;
  std::vector<double> dir_sin_;
  /// Bounds for the kernel's range guard: max wavenumber and max omega.
  double max_wavenumber_ = 0.0;
  double max_omega_ = 0.0;
};

/// Draws a direction offset from a cos^{2s} spreading function centred on
/// zero via rejection sampling. Exposed for tests.
///
/// Termination: attempts are bounded (256 draws). For the exponents the
/// simulator uses (s <= ~20, acceptance >= ~10%) the bound is effectively
/// never hit, so results are unchanged; for pathological exponents (s in
/// the hundreds, acceptance -> 0) the sampler deterministically returns
/// the highest-density draw seen instead of looping forever.
double sample_spreading_offset(util::Rng& rng, double exponent);

}  // namespace sid::ocean
