// Equivalence of the wave-field sin/cos kernel with libm.
//
// ocean::sincos_batch replaces std::sin/std::cos in every WaveField
// evaluation. These tests keep the libm synthesis loops as they were before
// the kernel, verbatim, and check three things: the kernel is within 2^-51
// of libm over its validated phase range; calls beyond that range fall back
// to libm exactly; and the sensor counts a buoy records are unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "dsp/filter.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/accelerometer.h"
#include "sensing/buoy.h"
#include "sensing/trace.h"
#include "util/rng.h"

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

double libm_vertical_acceleration(const std::vector<WaveComponent>& components,
                                  util::Vec2 p, double t) {
  double az = 0.0;
  for (const auto& c : components) {
    const double kx = c.wavenumber * (c.dir_cos * p.x + c.dir_sin * p.y);
    const double phase = kx - c.omega * t + c.phase;
    az += -c.omega * c.omega * c.amplitude_m * std::cos(phase);
  }
  return az;
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
    EXPECT_EQ(field.vertical_acceleration(p, t),
              libm_vertical_acceleration(components, p, t));
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
    EXPECT_NEAR(field.vertical_acceleration(p, t),
                libm_vertical_acceleration(components, p, t), 1e-13);
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
  return buoy.sense(Accel3{.ax = response[0].process(a.ax),
                           .ay = response[1].process(a.ay),
                           .az = response[2].process(a.az)});
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

}  // namespace
}  // namespace sid
