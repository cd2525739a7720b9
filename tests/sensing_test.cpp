// Tests for the sensing layer: accelerometer model, buoy dynamics and
// composite trace generation.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/accelerometer.h"
#include "sensing/buoy.h"
#include "sensing/trace.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/units.h"

namespace sid::sense {
namespace {

// ------------------------------------------------------------ accel

TEST(AccelerometerTest, RestingReadsOneGravityOnZ) {
  AccelerometerConfig cfg;
  cfg.noise_stddev_counts = 0.0;
  cfg.bias_stddev_counts = 0.0;
  Accelerometer accel(cfg);
  const auto counts = accel.sample({0.0, 0.0, 1.0});
  EXPECT_NEAR(counts.z, 1024.0, 0.5);
  EXPECT_NEAR(counts.x, 0.0, 0.5);
  EXPECT_NEAR(counts.y, 0.0, 0.5);
}

TEST(AccelerometerTest, ClipsAtRange) {
  AccelerometerConfig cfg;
  cfg.noise_stddev_counts = 0.0;
  cfg.bias_stddev_counts = 0.0;
  Accelerometer accel(cfg);
  const auto counts = accel.sample({5.0, -5.0, 0.0});
  EXPECT_NEAR(counts.x, 2047.0, 1.5);  // +2 g clamp minus LSB
  EXPECT_NEAR(counts.y, -2048.0, 0.5);
}

TEST(AccelerometerTest, QuantizesToIntegerCounts) {
  AccelerometerConfig cfg;
  cfg.noise_stddev_counts = 0.0;
  cfg.bias_stddev_counts = 0.0;
  Accelerometer accel(cfg);
  const auto counts = accel.sample({0.1234, 0.0, 1.0});
  EXPECT_EQ(counts.x, std::round(counts.x));
  EXPECT_EQ(counts.z, std::round(counts.z));
}

TEST(AccelerometerTest, NoiseHasConfiguredSpread) {
  AccelerometerConfig cfg;
  cfg.noise_stddev_counts = 6.0;
  cfg.bias_stddev_counts = 0.0;
  Accelerometer accel(cfg);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(accel.sample({0, 0, 1.0}).z);
  EXPECT_NEAR(stats.mean(), 1024.0, 0.5);
  // Quantization adds ~1/12 count^2; dominated by the 6-count noise.
  EXPECT_NEAR(stats.stddev(), 6.0, 0.5);
}

TEST(AccelerometerTest, BiasIsFixedPerInstanceAndSeeded) {
  AccelerometerConfig cfg;
  cfg.noise_stddev_counts = 0.0;
  cfg.bias_stddev_counts = 20.0;
  cfg.seed = 5;
  Accelerometer a(cfg), b(cfg);
  // Same seed -> same bias.
  EXPECT_EQ(a.sample({0, 0, 1.0}).z, b.sample({0, 0, 1.0}).z);
  cfg.seed = 6;
  Accelerometer c(cfg);
  EXPECT_NE(a.sample({0, 0, 1.0}).z, c.sample({0, 0, 1.0}).z);
}

TEST(AccelerometerTest, RejectsBadConfig) {
  AccelerometerConfig cfg;
  cfg.range_g = 0.0;
  EXPECT_THROW(Accelerometer{cfg}, util::InvalidArgument);
  cfg = {};
  cfg.noise_stddev_counts = -1.0;
  EXPECT_THROW(Accelerometer{cfg}, util::InvalidArgument);
}

// ------------------------------------------------------------ buoy

TEST(BuoyTest, DriftStaysWithinRadius) {
  BuoyConfig cfg;
  cfg.anchor = {100.0, 50.0};
  cfg.drift_radius_m = 2.0;
  Buoy buoy(cfg);
  for (int i = 0; i < 50000; ++i) {
    buoy.step(0.02);
    EXPECT_LE(util::distance(buoy.position(), cfg.anchor), 2.0 + 1e-9);
  }
}

TEST(BuoyTest, DriftActuallyMoves) {
  BuoyConfig cfg;
  cfg.drift_radius_m = 2.0;
  Buoy buoy(cfg);
  double max_excursion = 0.0;
  for (int i = 0; i < 20000; ++i) {
    buoy.step(0.02);
    max_excursion =
        std::max(max_excursion, util::distance(buoy.position(), cfg.anchor));
  }
  EXPECT_GT(max_excursion, 0.5);
}

TEST(BuoyTest, ZeroDriftRadiusPinsPosition) {
  BuoyConfig cfg;
  cfg.drift_radius_m = 0.0;
  Buoy buoy(cfg);
  for (int i = 0; i < 100; ++i) buoy.step(0.02);
  EXPECT_EQ(buoy.position(), cfg.anchor);
}

TEST(BuoyTest, TiltWandersWithConfiguredMagnitude) {
  BuoyConfig cfg;
  cfg.tilt_stddev_rad = 0.06;
  Buoy buoy(cfg);
  util::RunningStats roll;
  for (int i = 0; i < 100000; ++i) {
    buoy.step(0.02);
    roll.add(buoy.roll_rad());
  }
  EXPECT_NEAR(roll.stddev(), 0.06, 0.02);
  EXPECT_NEAR(roll.mean(), 0.0, 0.02);
}

TEST(BuoyTest, LevelBuoySensesGravityPlusHeave) {
  BuoyConfig cfg;
  cfg.tilt_stddev_rad = 0.0;
  cfg.drift_radius_m = 0.0;
  Buoy buoy(cfg);
  const auto g = Buoy::sense({0.0, 0.0, 0.0}, buoy.roll_rad(),
                             buoy.pitch_rad());
  EXPECT_NEAR(g.z, 1.0, 1e-12);
  EXPECT_NEAR(g.x, 0.0, 1e-12);
  const auto up = Buoy::sense({0.0, 0.0, 2.0}, buoy.roll_rad(),
                              buoy.pitch_rad());
  EXPECT_NEAR(up.z, 1.0 + 2.0 / util::kGravity, 1e-12);
}

TEST(BuoyTest, TiltLeaksGravityIntoHorizontalAxes) {
  BuoyConfig cfg;
  cfg.tilt_stddev_rad = 0.3;
  cfg.tilt_time_constant_s = 1.0;
  Buoy buoy(cfg);
  for (int i = 0; i < 5000; ++i) buoy.step(0.02);
  // With ~0.3 rad tilts, x/y see a noticeable share of gravity.
  double max_xy = 0.0;
  for (int i = 0; i < 5000; ++i) {
    buoy.step(0.02);
    const auto g = Buoy::sense({0.0, 0.0, 0.0}, buoy.roll_rad(),
                               buoy.pitch_rad());
    max_xy = std::max({max_xy, std::abs(g.x), std::abs(g.y)});
  }
  EXPECT_GT(max_xy, 0.1);
}

TEST(BuoyTest, SenseNormPreservedUnderTilt) {
  // Rotation cannot change the magnitude of the specific-force vector.
  BuoyConfig cfg;
  cfg.tilt_stddev_rad = 0.2;
  Buoy buoy(cfg);
  for (int i = 0; i < 1000; ++i) buoy.step(0.02);
  const ocean::Accel3 a{0.4, -0.2, 1.1};
  const auto g = Buoy::sense(a, buoy.roll_rad(), buoy.pitch_rad());
  const double world_norm =
      std::sqrt(a.ax * a.ax + a.ay * a.ay +
                (a.az + util::kGravity) * (a.az + util::kGravity));
  const double sensor_norm = util::kGravity *
                             std::sqrt(g.x * g.x + g.y * g.y + g.z * g.z);
  EXPECT_NEAR(sensor_norm, world_norm, 1e-9);
}

TEST(BuoyTest, StepRejectsNonPositiveDt) {
  Buoy buoy(BuoyConfig{});
  EXPECT_THROW(buoy.step(0.0), util::InvalidArgument);
  EXPECT_THROW(buoy.step(-1.0), util::InvalidArgument);
}

// ------------------------------------------------------------ trace

ocean::WaveField make_field(ocean::SeaState state = ocean::SeaState::kCalm,
                            std::uint64_t seed = 1) {
  const auto spectrum = ocean::make_sea_spectrum(state);
  ocean::WaveFieldConfig cfg;
  cfg.seed = seed;
  return ocean::WaveField(*spectrum, cfg);
}

TEST(TraceTest, SizeAndTimingMatchConfig) {
  const auto field = make_field();
  TraceConfig cfg;
  cfg.duration_s = 30.0;
  cfg.sample_rate_hz = 50.0;
  cfg.start_time_s = 5.0;
  const auto trace = generate_ocean_trace(field, cfg);
  EXPECT_EQ(trace.size(), 1500u);
  EXPECT_NEAR(trace.duration_s(), 30.0, 1e-9);
  EXPECT_NEAR(trace.time_at(0), 5.0, 1e-9);
  EXPECT_NEAR(trace.time_at(1499), 5.0 + 1499.0 / 50.0, 1e-9);
}

TEST(TraceTest, ZFluctuatesAroundOneG) {
  const auto field = make_field(ocean::SeaState::kModerate);
  TraceConfig cfg;
  cfg.duration_s = 120.0;
  const auto trace = generate_ocean_trace(field, cfg);
  util::RunningStats z;
  for (double v : trace.z) z.add(v);
  EXPECT_NEAR(z.mean(), 1024.0, 60.0);
  EXPECT_GT(z.stddev(), 20.0);  // waves visible
  // Fig. 5 scale: hundreds of counts of fluctuation, not railed.
  EXPECT_LT(z.max(), 2047.5);
  EXPECT_GT(z.min(), -2048.5);
}

TEST(TraceTest, ZCenteredRemovesRestLevel) {
  const auto field = make_field();
  TraceConfig cfg;
  cfg.duration_s = 30.0;
  const auto trace = generate_ocean_trace(field, cfg);
  const auto centered = trace.z_centered();
  util::RunningStats stats;
  for (double v : centered) stats.add(v);
  EXPECT_NEAR(stats.mean(), 0.0, 60.0);
}

TEST(TraceTest, WakeIntervalRecorded) {
  const auto field = make_field();
  wake::ShipTrackConfig scfg;
  scfg.start = {0.0, -300.0};
  scfg.heading_rad = std::numbers::pi / 2;
  scfg.speed_mps = util::knots_to_mps(10.0);
  const wake::ShipTrack track(scfg);
  const auto train = wake::make_wake_train(track, {25.0, 0.0});
  ASSERT_TRUE(train.has_value());

  TraceConfig cfg;
  cfg.duration_s = 150.0;
  cfg.buoy.anchor = {25.0, 0.0};
  const std::vector<wake::WakeTrain> trains{*train};
  const auto trace = generate_trace(field, trains, cfg);
  ASSERT_EQ(trace.wake_intervals.size(), 1u);
  EXPECT_NEAR(trace.wake_intervals[0].first,
              train->params().arrival_time_s, 1e-9);

  // wake_active_at flags samples inside the interval.
  bool any_active = false;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.wake_active_at(i)) {
      any_active = true;
      EXPECT_GE(trace.time_at(i), train->params().arrival_time_s - 1e-9);
    }
  }
  EXPECT_TRUE(any_active);
}

TEST(TraceTest, WakeRaisesZExcursions) {
  const auto field = make_field(ocean::SeaState::kCalm, 3);
  wake::ShipTrackConfig scfg;
  scfg.start = {0.0, -300.0};
  scfg.heading_rad = std::numbers::pi / 2;
  scfg.speed_mps = util::knots_to_mps(12.0);
  const wake::ShipTrack track(scfg);
  const auto train = wake::make_wake_train(track, {25.0, 0.0});
  ASSERT_TRUE(train.has_value());

  TraceConfig cfg;
  cfg.duration_s = 150.0;
  cfg.buoy.anchor = {25.0, 0.0};
  const std::vector<wake::WakeTrain> trains{*train};
  const auto with_wake = generate_trace(field, trains, cfg);
  const auto without = generate_ocean_trace(field, cfg);

  // Peak |z - 1024| inside the wake window should exceed the ocean-only
  // peak over the same window.
  double peak_with = 0.0, peak_without = 0.0;
  for (std::size_t i = 0; i < with_wake.size(); ++i) {
    if (!with_wake.wake_active_at(i)) continue;
    peak_with = std::max(peak_with, std::abs(with_wake.z[i] - 1024.0));
    peak_without = std::max(peak_without, std::abs(without.z[i] - 1024.0));
  }
  EXPECT_GT(peak_with, peak_without);
}

TEST(TraceTest, DeterministicForSameSeeds) {
  const auto field = make_field();
  TraceConfig cfg;
  cfg.duration_s = 20.0;
  const auto a = generate_ocean_trace(field, cfg);
  const auto b = generate_ocean_trace(field, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.z[i], b.z[i]);
  }
}

TEST(TraceTest, DifferentBuoySeedsDiffer) {
  const auto field = make_field();
  TraceConfig cfg_a;
  cfg_a.duration_s = 20.0;
  cfg_a.buoy.seed = 1;
  TraceConfig cfg_b = cfg_a;
  cfg_b.buoy.seed = 2;
  const auto a = generate_ocean_trace(field, cfg_a);
  const auto b = generate_ocean_trace(field, cfg_b);
  std::size_t equal = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.z[i] == b.z[i]) ++equal;
  }
  EXPECT_LT(equal, a.size());
}

TEST(TraceTest, RejectsBadConfig) {
  const auto field = make_field();
  TraceConfig cfg;
  cfg.duration_s = 0.0;
  EXPECT_THROW(generate_ocean_trace(field, cfg), util::InvalidArgument);
  cfg = {};
  cfg.sample_rate_hz = -1.0;
  EXPECT_THROW(generate_ocean_trace(field, cfg), util::InvalidArgument);
}

}  // namespace
}  // namespace sid::sense
