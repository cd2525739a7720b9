// Equivalence of wave-field synthesis with its references.
//
// Two references are kept here, verbatim, so the library's faster paths
// can be held to them:
//   - the libm synthesis loops from before the sin/cos kernel, for the
//     kernel's 2^-51 accuracy, the guard's exact libm fallback and the
//     sensor counts a buoy records;
//   - the per-sample path from before sample blocking: a scalar copy of
//     the kernel's sin/cos arithmetic, of the one-sample acceleration and
//     of the generate_trace loop. sincos_batch, the block form of
//     WaveField::acceleration and generate_trace must match it bit for
//     bit, which checks whichever ISA clone the host runs. This file
//     builds at the baseline ISA, so the reference cannot fuse a
//     multiply-add.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <span>
#include <vector>

#include "dsp/filter.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/accelerometer.h"
#include "sensing/buoy.h"
#include "sensing/trace.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/rng.h"
#include "util/units.h"

namespace sid {
namespace {

using ocean::Accel3;
using ocean::WaveComponent;

// ------------------------------------------------ libm reference loops

double libm_elevation(const std::vector<WaveComponent>& components,
                      util::Vec2 p, double t) {
  double eta = 0.0;
  for (const auto& c : components) {
    const double kx = c.wavenumber * (c.dir_cos * p.x + c.dir_sin * p.y);
    eta += c.amplitude_m * std::cos(kx - c.omega * t + c.phase);
  }
  return eta;
}

Accel3 libm_acceleration(const std::vector<WaveComponent>& components,
                         util::Vec2 p, double t) {
  Accel3 a;
  for (const auto& c : components) {
    const double dir_x = c.dir_cos;
    const double dir_y = c.dir_sin;
    const double kx = c.wavenumber * (dir_x * p.x + dir_y * p.y);
    const double phase = kx - c.omega * t + c.phase;
    const double w2a = c.omega * c.omega * c.amplitude_m;
    a.az += -w2a * std::cos(phase);
    const double horizontal = w2a * std::sin(phase);
    a.ax += horizontal * dir_x;
    a.ay += horizontal * dir_y;
  }
  return a;
}

// ------------------------------------------------ kernel vs libm

TEST(SinCosKernelTest, WithinTwoToTheMinus51OfLibmInsideValidatedRange) {
  constexpr double kMax = ocean::kSinCosMaxPhase;
  constexpr double kHalfPi = std::numbers::pi / 2.0;
  util::Rng rng(20240518);
  std::vector<double> phases = {0.0, -0.0, kHalfPi / 2.0, -kHalfPi / 2.0,
                                kHalfPi, kMax, -kMax};
  // Uniform over the whole range, then the hardest reductions (phases
  // within 1e-6 of a multiple of pi/2), then the span a 300 s harbor trace
  // covers (|k x| and |omega t| both below about 6e3 rad).
  for (int i = 0; i < 800000; ++i) phases.push_back(rng.uniform(-kMax, kMax));
  for (int i = 0; i < 150000; ++i) {
    const double q = std::round(rng.uniform(-kMax, kMax) / kHalfPi);
    phases.push_back(q * kHalfPi + rng.uniform(-1e-6, 1e-6));
  }
  for (int i = 0; i < 100000; ++i) phases.push_back(rng.uniform(-1e4, 1e4));
  ASSERT_GE(phases.size(), 1000000u);

  std::vector<double> sin_out(phases.size());
  std::vector<double> cos_out(phases.size());
  ocean::sincos_batch(phases.data(), sin_out.data(), cos_out.data(),
                      phases.size());
  double max_sin_err = 0.0;
  double max_cos_err = 0.0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    max_sin_err = std::max(max_sin_err, std::abs(sin_out[i] -
                                                 std::sin(phases[i])));
    max_cos_err = std::max(max_cos_err, std::abs(cos_out[i] -
                                                 std::cos(phases[i])));
  }
  EXPECT_LE(max_sin_err, 0x1p-51);
  EXPECT_LE(max_cos_err, 0x1p-51);
}

TEST(SinCosKernelTest, ScalarCallsMatchOneBatchCall) {
  // Same bits whether a phase is evaluated alone (the scalar tail of the
  // loop) or inside a vectorized batch.
  util::Rng rng(3);
  std::vector<double> phases(1001);
  for (auto& x : phases) x = rng.uniform(-1e4, 1e4);
  std::vector<double> sin_batch(phases.size());
  std::vector<double> cos_batch(phases.size());
  ocean::sincos_batch(phases.data(), sin_batch.data(), cos_batch.data(),
                      phases.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    double s = 0.0;
    double c = 0.0;
    ocean::sincos_batch(&phases[i], &s, &c, 1);
    ASSERT_EQ(s, sin_batch[i]) << "phase " << phases[i];
    ASSERT_EQ(c, cos_batch[i]) << "phase " << phases[i];
  }
}

TEST(SinCosKernelTest, CallsBeyondTheGuardUseLibmExactly) {
  const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kRough);
  const ocean::WaveField field(*spectrum, {});
  const auto components = field.components();
  // t = 1e7 s puts the 3 Hz phases near 2e8 rad; so does a point 1e7 m
  // out at t = 0.
  for (const auto& [p, t] : std::vector<std::pair<util::Vec2, double>>{
           {{12.5, -40.0}, 1e7},
           {{3.0, 4.0}, -2.5e7},
           {{1e7, 0.0}, 0.0}}) {
    const Accel3 a = field.acceleration(p, t);
    const Accel3 ref = libm_acceleration(components, p, t);
    EXPECT_EQ(a.ax, ref.ax);
    EXPECT_EQ(a.ay, ref.ay);
    EXPECT_EQ(a.az, ref.az);
    EXPECT_EQ(field.elevation(p, t), libm_elevation(components, p, t));
  }
}

TEST(SinCosKernelTest, ElevationAndHeaveAgreeWithLibmInsideTheGuard) {
  const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kModerate);
  const ocean::WaveField field(*spectrum, {});
  const auto components = field.components();
  for (const double t : {0.0, 0.02, 299.98, 3600.0}) {
    const util::Vec2 p{62.5, 125.0};
    EXPECT_NEAR(field.elevation(p, t), libm_elevation(components, p, t),
                1e-14);
    EXPECT_NEAR(field.acceleration(p, t).az,
                libm_acceleration(components, p, t).az, 1e-13);
  }
}

// ------------------------------------------------ sensor counts

struct Tally {
  std::size_t counts = 0;
  std::size_t changed = 0;
  double max_delta[3] = {0.0, 0.0, 0.0};  ///< m/s^2 per axis, unfiltered
};

std::vector<dsp::IirCascade> heave_response(const sense::TraceConfig& cfg) {
  std::vector<dsp::IirCascade> response;
  for (int axis = 0; axis < 3; ++axis) {
    response.emplace_back(dsp::butterworth_lowpass(
        2, cfg.buoy_response_cutoff_hz, cfg.sample_rate_hz));
  }
  return response;
}

sense::AccelG sense_filtered(const sense::Buoy& buoy,
                             std::vector<dsp::IirCascade>& response,
                             const Accel3& a) {
  return sense::Buoy::sense(Accel3{.ax = response[0].process(a.ax),
                                   .ay = response[1].process(a.ay),
                                   .az = response[2].process(a.az)},
                            buoy.roll_rad(), buoy.pitch_rad());
}

// One 300 s, 50 Hz track: the buoy drifts and tilts as in generate_trace,
// and the kernel and the libm loop each feed their own heave filters and
// their own identically seeded accelerometer.
void compare_track(const ocean::WaveField& field, util::Vec2 anchor,
                   std::uint64_t seed, double start_s, Tally& tally) {
  const auto components = field.components();
  sense::TraceConfig cfg;
  cfg.buoy.anchor = anchor;
  cfg.buoy.seed = seed * 7919 + 1;
  cfg.accel.seed = seed * 104729;
  sense::Buoy buoy(cfg.buoy);
  sense::Accelerometer kernel_accel(cfg.accel);
  sense::Accelerometer libm_accel(cfg.accel);
  auto kernel_response = heave_response(cfg);
  auto libm_response = heave_response(cfg);
  const double dt = 1.0 / cfg.sample_rate_hz;
  const auto n = static_cast<std::size_t>(300.0 * cfg.sample_rate_hz);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = start_s + static_cast<double>(i) * dt;
    buoy.step(dt);
    const Accel3 a = field.acceleration(buoy.position(), t);
    const Accel3 ref = libm_acceleration(components, buoy.position(), t);
    tally.max_delta[0] = std::max(tally.max_delta[0], std::abs(a.ax - ref.ax));
    tally.max_delta[1] = std::max(tally.max_delta[1], std::abs(a.ay - ref.ay));
    tally.max_delta[2] = std::max(tally.max_delta[2], std::abs(a.az - ref.az));
    const auto got =
        kernel_accel.sample(sense_filtered(buoy, kernel_response, a));
    const auto want =
        libm_accel.sample(sense_filtered(buoy, libm_response, ref));
    tally.counts += 3;
    tally.changed += static_cast<std::size_t>(got.x != want.x) +
                     static_cast<std::size_t>(got.y != want.y) +
                     static_cast<std::size_t>(got.z != want.z);
  }
}

TEST(SynthesisEquivalenceTest, SensorCountsMatchLibmAcrossSeaStatesAndSeeds) {
  // Anchors span the 6x6 harbor and the far corner of a 100x100 field;
  // one track starts an hour in.
  const std::vector<std::pair<util::Vec2, double>> tracks = {
      {{0.0, 0.0}, 0.0},
      {{125.0, 62.5}, 0.0},
      {{2475.0, 2475.0}, 0.0},
      {{300.0, -150.0}, 3600.0}};
  const std::uint64_t seeds[] = {1, 2, 7, 11};
  Tally tally;
  for (const auto sea : {ocean::SeaState::kCalm, ocean::SeaState::kModerate,
                         ocean::SeaState::kRough}) {
    const auto spectrum = ocean::make_sea_spectrum(sea);
    for (std::size_t k = 0; k < tracks.size(); ++k) {
      ocean::WaveFieldConfig field_cfg;
      field_cfg.seed = seeds[k];
      const ocean::WaveField field(*spectrum, field_cfg);
      const auto& [anchor, start_s] = tracks[k];
      compare_track(field, anchor, seeds[k], start_s, tally);
    }
  }
  EXPECT_EQ(tally.counts, 3u * 4u * 15000u * 3u);
  EXPECT_EQ(tally.changed, 0u);
  for (const double delta : tally.max_delta) EXPECT_LE(delta, 1e-13);
}

// ------------------------------------------------ per-sample reference

// The kernel's sin/cos arithmetic, verbatim: a Cody–Waite reduction by
// pi/2 and fdlibm's polynomials, one phase at a time.
void reference_sincos(double x, double& sin_x, double& cos_x) {
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
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPio2Hi = 1.57079632673412561417e+00;
  constexpr double kPio2Mid = 6.07710050630396597660e-11;
  constexpr double kPio2Lo = 2.02226624871116645580e-21;
  constexpr double kRoundShift = 0x1.8p52;
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
  const auto quadrant = std::bit_cast<std::uint64_t>(shifted);
  const std::uint64_t swap = 0 - (quadrant & 1);
  const auto sin_bits = std::bit_cast<std::uint64_t>(sin_r);
  const auto cos_bits = std::bit_cast<std::uint64_t>(cos_r);
  sin_x = std::bit_cast<double>(((sin_bits & ~swap) | (cos_bits & swap)) ^
                                ((quadrant & 2) << 62));
  cos_x = std::bit_cast<double>(((cos_bits & ~swap) | (sin_bits & swap)) ^
                                (((quadrant + 1) & 2) << 62));
}

// The one-sample acceleration: the range guard picks the kernel or libm
// for the whole sample, and the components are summed 0..N-1 in order.
class ReferenceField {
 public:
  explicit ReferenceField(const ocean::WaveField& field)
      : components_(field.components()) {
    for (const auto& c : components_) {
      max_wavenumber_ = std::max(max_wavenumber_, c.wavenumber);
      max_omega_ = std::max(max_omega_, c.omega);
    }
  }

  bool in_kernel_range(util::Vec2 p, double t) const {
    const double bound = max_wavenumber_ * (std::abs(p.x) + std::abs(p.y)) +
                         max_omega_ * std::abs(t) + 2.0 * std::numbers::pi;
    return bound <= ocean::kSinCosMaxPhase;
  }

  Accel3 acceleration(util::Vec2 p, double t) const {
    const bool use_kernel = in_kernel_range(p, t);
    Accel3 a;
    for (const auto& c : components_) {
      const double kx = c.wavenumber * (c.dir_cos * p.x + c.dir_sin * p.y);
      const double phase = kx - c.omega * t + c.phase;
      double sin_phase = 0.0;
      double cos_phase = 0.0;
      if (use_kernel) {
        reference_sincos(phase, sin_phase, cos_phase);
      } else {
        sin_phase = std::sin(phase);
        cos_phase = std::cos(phase);
      }
      const double w2a = c.omega * c.omega * c.amplitude_m;
      a.az += -w2a * cos_phase;
      const double horizontal = w2a * sin_phase;
      a.ax += horizontal * c.dir_cos;
      a.ay += horizontal * c.dir_sin;
    }
    return a;
  }

 private:
  std::vector<WaveComponent> components_;
  double max_wavenumber_ = 0.0;
  double max_omega_ = 0.0;
};

// The generate_trace loop, one sample at a time: step the buoy, evaluate
// the field, add the wake trains, filter, tilt, add slam noise, apply the
// fault and digitize.
sense::SensorTrace reference_trace(const ocean::WaveField& field,
                                   std::span<const wake::WakeTrain> trains,
                                   const sense::TraceConfig& config) {
  const ReferenceField reference(field);
  const auto n = static_cast<std::size_t>(
      std::llround(config.duration_s * config.sample_rate_hz));
  sense::Buoy buoy(config.buoy);
  sense::Accelerometer accel(config.accel);
  util::Rng slam_rng(config.buoy.seed * 0x9e3779b97f4a7c15ULL + 0x51A11ULL);
  const double dt = 1.0 / config.sample_rate_hz;
  auto response = heave_response(config);
  sense::SensorTrace trace;
  trace.sample_rate_hz = config.sample_rate_hz;
  trace.start_time_s = config.start_time_s;
  std::optional<sense::CountSample> stuck;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = config.start_time_s + static_cast<double>(i) * dt;
    buoy.step(dt);
    Accel3 a = reference.acceleration(buoy.position(), t);
    for (const auto& train : trains) {
      const double wz = train.vertical_acceleration(t);
      a.az += wz;
      const double wh = config.wake_horizontal_fraction * wz;
      a.ax += wh * 0.7 * train.params().side;
      a.ay += wh * 0.3;
    }
    a.ax = response[0].process(a.ax);
    a.ay = response[1].process(a.ay);
    a.az = response[2].process(a.az);
    sense::AccelG g = sense::Buoy::sense(a, buoy.roll_rad(), buoy.pitch_rad());
    g.x += slam_rng.normal(0.0, 2.0 * config.slam_noise_g);
    g.y += slam_rng.normal(0.0, 2.0 * config.slam_noise_g);
    g.z += slam_rng.normal(0.0, config.slam_noise_g);
    const bool faulty = config.fault.mode != sense::SensorFaultMode::kNone &&
                        t >= config.fault.start_s;
    if (faulty && config.fault.mode == sense::SensorFaultMode::kGainDrift) {
      const double gain =
          std::max(0.0, 1.0 + config.fault.gain_drift_per_s *
                                  (t - config.fault.start_s));
      g.x *= gain;
      g.y *= gain;
      g.z *= gain;
    }
    if (faulty && config.fault.mode == sense::SensorFaultMode::kSaturation) {
      const double lim = config.fault.saturation_g;
      g.x = std::clamp(g.x, -lim, lim);
      g.y = std::clamp(g.y, -lim, lim);
      g.z = std::clamp(g.z, -lim, lim);
    }
    sense::CountSample counts = accel.sample(g);
    if (faulty && config.fault.mode == sense::SensorFaultMode::kStuckAt) {
      if (stuck) {
        counts = *stuck;
      } else {
        stuck = counts;
      }
    }
    trace.x.push_back(counts.x);
    trace.y.push_back(counts.y);
    trace.z.push_back(counts.z);
  }
  return trace;
}

// ------------------------------------------------ bit-identity

// Phases spread like the validated range of WithinTwoToTheMinus51...:
// uniform over it, hard reductions near multiples of pi/2, and the span
// a harbor trace covers.
std::vector<double> validated_phases(std::uint64_t seed, int count) {
  constexpr double kMax = ocean::kSinCosMaxPhase;
  constexpr double kHalfPi = std::numbers::pi / 2.0;
  util::Rng rng(seed);
  std::vector<double> phases = {0.0, -0.0, kHalfPi, -kHalfPi, kMax, -kMax};
  for (int i = 0; i < count; ++i) {
    phases.push_back(rng.uniform(-kMax, kMax));
    const double q = std::round(rng.uniform(-kMax, kMax) / kHalfPi);
    phases.push_back(q * kHalfPi + rng.uniform(-1e-6, 1e-6));
    phases.push_back(rng.uniform(-1e4, 1e4));
  }
  return phases;
}

TEST(SinCosKernelTest, BatchMatchesScalarReferenceBitForBit) {
  // Odd lengths leave a scalar tail behind every vector width.
  const auto phases = validated_phases(77, 100001);
  std::vector<double> sin_out(phases.size());
  std::vector<double> cos_out(phases.size());
  ocean::sincos_batch(phases.data(), sin_out.data(), cos_out.data(),
                      phases.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    double s = 0.0;
    double c = 0.0;
    reference_sincos(phases[i], s, c);
    // Compare bits, so -0.0 against 0.0 counts too.
    mismatches +=
        static_cast<std::size_t>(std::bit_cast<std::uint64_t>(s) !=
                                 std::bit_cast<std::uint64_t>(sin_out[i])) +
        static_cast<std::size_t>(std::bit_cast<std::uint64_t>(c) !=
                                 std::bit_cast<std::uint64_t>(cos_out[i]));
  }
  EXPECT_EQ(mismatches, 0u) << "of " << 2 * phases.size() << " values";
}

void expect_block_matches_reference(const ocean::WaveField& field,
                                    std::span<const util::Vec2> p,
                                    std::span<const double> t) {
  const ReferenceField reference(field);
  std::vector<Accel3> block(p.size());
  field.acceleration(p, t, block);
  for (std::size_t j = 0; j < p.size(); ++j) {
    const Accel3 want = reference.acceleration(p[j], t[j]);
    EXPECT_EQ(block[j].ax, want.ax) << "sample " << j;
    EXPECT_EQ(block[j].ay, want.ay) << "sample " << j;
    EXPECT_EQ(block[j].az, want.az) << "sample " << j;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(BlockKernelTest, MatchesPerSampleReferenceBitForBit) {
  // 5,000 accelerations along drifting tracks in three sea states, in
  // calls of 1, 63, 64, 65 and 4,421 samples (partial and whole blocks).
  std::size_t evaluated = 0;
  std::uint64_t seed = 1;
  for (const auto sea : {ocean::SeaState::kCalm, ocean::SeaState::kModerate,
                         ocean::SeaState::kRough}) {
    const auto spectrum = ocean::make_sea_spectrum(sea);
    ocean::WaveFieldConfig cfg;
    cfg.seed = seed++;
    const ocean::WaveField field(*spectrum, cfg);
    util::Rng rng(cfg.seed + 100);
    for (const std::size_t n : {1u, 63u, 64u, 65u, 4421u}) {
      if (sea != ocean::SeaState::kModerate && n == 4421u) continue;
      std::vector<util::Vec2> p(n);
      std::vector<double> t(n);
      util::Vec2 at{rng.uniform(-2500.0, 2500.0), rng.uniform(-2500.0, 2500.0)};
      const double t0 = rng.uniform(0.0, 3600.0);
      for (std::size_t j = 0; j < n; ++j) {
        at.x += rng.normal(0.0, 0.01);
        at.y += rng.normal(0.0, 0.01);
        p[j] = at;
        t[j] = t0 + 0.02 * static_cast<double>(j);
      }
      SCOPED_TRACE(testing::Message() << "sea " << static_cast<int>(sea)
                                      << ", n " << n);
      expect_block_matches_reference(field, p, t);
      evaluated += n;
    }
  }
  EXPECT_EQ(evaluated, 5000u);
}

TEST(BlockKernelTest, BlockStraddlingTheGuardMatchesReference) {
  // Times rising through the guard: the early samples of the block take
  // the kernel and the late ones libm, each as a one-sample call would.
  const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kRough);
  const ocean::WaveField field(*spectrum, {});
  const ReferenceField reference(field);
  const util::Vec2 at{40.0, -25.0};
  double lo = 0.0;
  double hi = 1e7;
  for (int k = 0; k < 200; ++k) {
    const double mid = 0.5 * (lo + hi);
    (reference.in_kernel_range(at, mid) ? lo : hi) = mid;
  }
  std::vector<util::Vec2> p(ocean::kSampleBlock, at);
  std::vector<double> t(ocean::kSampleBlock);
  std::size_t in_range = 0;
  for (std::size_t j = 0; j < t.size(); ++j) {
    t[j] = lo + 0.02 * (static_cast<double>(j) - 20.0);
    if (reference.in_kernel_range(at, t[j])) ++in_range;
  }
  ASSERT_GT(in_range, 0u);
  ASSERT_LT(in_range, t.size());
  expect_block_matches_reference(field, p, t);
}

void expect_same_trace(const sense::SensorTrace& got,
                       const sense::SensorTrace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.x[i], want.x[i]) << "sample " << i;
    EXPECT_EQ(got.y[i], want.y[i]) << "sample " << i;
    EXPECT_EQ(got.z[i], want.z[i]) << "sample " << i;
    if (::testing::Test::HasFailure()) return;
  }
}

struct TraceCase {
  ocean::SeaState sea = ocean::SeaState::kModerate;
  std::uint64_t seed = 1;
  std::size_t samples = 0;
  sense::SensorFaultMode fault = sense::SensorFaultMode::kNone;
  bool wake = false;
};

TEST(TraceEquivalenceTest, GenerateTraceMatchesPerSampleReference) {
  using sense::SensorFaultMode;
  const std::vector<TraceCase> cases = {
      {.samples = 1},
      {.samples = 63},
      {.samples = 64},
      {.samples = 65},
      {.sea = ocean::SeaState::kCalm, .seed = 2, .samples = 15001},
      {.sea = ocean::SeaState::kModerate, .seed = 7, .samples = 15001},
      {.sea = ocean::SeaState::kRough, .seed = 11, .samples = 15001},
      {.seed = 3, .samples = 15001, .wake = true},
      {.seed = 4, .samples = 3001, .fault = SensorFaultMode::kStuckAt},
      {.seed = 5, .samples = 3001, .fault = SensorFaultMode::kGainDrift},
      {.seed = 6, .samples = 3001, .fault = SensorFaultMode::kSaturation},
  };
  wake::ShipTrackConfig ship;
  ship.start = {0.0, -300.0};
  ship.heading_rad = std::numbers::pi / 2;
  ship.speed_mps = util::knots_to_mps(10.0);
  const wake::ShipTrack track(ship);
  const util::Vec2 anchor{25.0, 0.0};
  const auto train = wake::make_wake_train(track, anchor);
  ASSERT_TRUE(train.has_value());
  ASSERT_LT(train->params().arrival_time_s, 300.0);

  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "sea " << static_cast<int>(c.sea) << ", seed " << c.seed
                 << ", " << c.samples << " samples, fault "
                 << static_cast<int>(c.fault));
    const auto spectrum = ocean::make_sea_spectrum(c.sea);
    ocean::WaveFieldConfig field_cfg;
    field_cfg.seed = c.seed;
    const ocean::WaveField field(*spectrum, field_cfg);
    sense::TraceConfig cfg;
    cfg.duration_s = static_cast<double>(c.samples) / cfg.sample_rate_hz;
    cfg.start_time_s = 0.5;
    cfg.buoy.anchor = anchor;
    cfg.buoy.seed = c.seed * 7919 + 1;
    cfg.accel.seed = c.seed * 104729;
    cfg.fault.mode = c.fault;
    cfg.fault.start_s = 20.0;
    cfg.fault.gain_drift_per_s = 0.01;
    std::vector<wake::WakeTrain> trains;
    if (c.wake) trains.push_back(*train);
    const auto got = sense::generate_trace(field, trains, cfg);
    ASSERT_EQ(got.size(), c.samples);
    expect_same_trace(got, reference_trace(field, trains, cfg));
  }
}

}  // namespace
}  // namespace sid
