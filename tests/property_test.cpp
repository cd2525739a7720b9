// Cross-module property tests: invariances that must hold for any input,
// checked over randomized sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/correlation.h"
#include "core/node_detector.h"
#include "core/speed_estimator.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace.h"
#include "shipwave/kelvin.h"
#include "shipwave/ship.h"
#include "util/rng.h"
#include "util/units.h"

namespace sid {
namespace {

// ------------------------------------------------- wake arrival order

TEST(WakeProperties, ArrivalMonotoneInDistance) {
  // For any straight track, points farther from the sailing line (same
  // abeam position) are reached strictly later.
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const util::Vec2 origin{rng.uniform(-100.0, 100.0),
                            rng.uniform(-100.0, 100.0)};
    const double speed = rng.uniform(2.0, 12.0);
    const util::Line2 line = util::Line2::through(origin, heading);
    const double along = rng.uniform(50.0, 300.0);
    const util::Vec2 base = origin + line.direction * along;
    const util::Vec2 out = line.direction.perp();
    double prev = -1e18;
    for (double d : {5.0, 15.0, 40.0, 90.0}) {
      const double t = wake::wake_front_arrival_time(
          origin, heading, speed, base + out * d);
      EXPECT_GT(t, prev);
      prev = t;
    }
  }
}

TEST(WakeProperties, ArrivalShiftsWithStartTime) {
  wake::ShipTrackConfig cfg;
  cfg.start = {0.0, -300.0};
  cfg.heading_rad = std::numbers::pi / 2;
  cfg.speed_mps = 6.0;
  const wake::ShipTrack early(cfg);
  cfg.start_time_s = 55.5;
  const wake::ShipTrack late(cfg);
  const util::Vec2 p{30.0, 10.0};
  EXPECT_NEAR(late.wake_arrival_time(p) - early.wake_arrival_time(p), 55.5,
              1e-9);
}

// ------------------------------------------------- detector invariances

sense::SensorTrace shared_trace() {
  const auto spectrum = ocean::make_sea_spectrum(ocean::SeaState::kCalm);
  ocean::WaveFieldConfig field_cfg;
  field_cfg.seed = 77;
  const ocean::WaveField field(*spectrum, field_cfg);
  sense::TraceConfig cfg;
  cfg.duration_s = 150.0;
  cfg.buoy.anchor = {25.0, 0.0};
  wake::ShipTrackConfig ship;
  ship.start = {0.0, -300.0};
  ship.heading_rad = std::numbers::pi / 2;
  ship.speed_mps = util::knots_to_mps(12.0);
  const auto train = wake::make_wake_train(wake::ShipTrack(ship), {25.0, 0.0});
  const std::vector<wake::WakeTrain> trains{*train};
  return sense::generate_trace(field, trains, cfg);
}

TEST(DetectorProperties, ZScoreTestIsGainInvariant) {
  // Scaling the whole count stream around the rest level (a different
  // sensor gain) must not change what is detected: the threshold is a
  // multiple of the adaptive std, so the z-score is scale-free.
  const auto trace = shared_trace();
  core::NodeDetectorConfig cfg;
  cfg.threshold_multiplier_m = 2.0;
  cfg.anomaly_frequency_threshold = 0.5;

  core::NodeDetector base(cfg);
  const auto base_alarms = base.process_trace(trace);

  sense::SensorTrace scaled = trace;
  for (auto& z : scaled.z) z = 1024.0 + 2.0 * (z - 1024.0);
  core::NodeDetector doubled(cfg);
  const auto scaled_alarms = doubled.process_trace(scaled);

  ASSERT_EQ(base_alarms.size(), scaled_alarms.size());
  for (std::size_t i = 0; i < base_alarms.size(); ++i) {
    EXPECT_NEAR(base_alarms[i].onset_time_s, scaled_alarms[i].onset_time_s,
                0.5);
    // Energies scale with the gain.
    EXPECT_NEAR(scaled_alarms[i].peak_energy,
                2.0 * base_alarms[i].peak_energy,
                0.2 * scaled_alarms[i].peak_energy);
  }
}

TEST(DetectorProperties, StricterMNeverRaisesMoreAlarms) {
  const auto trace = shared_trace();
  std::size_t prev = SIZE_MAX;
  for (double m : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
    core::NodeDetectorConfig cfg;
    cfg.threshold_multiplier_m = m;
    cfg.anomaly_frequency_threshold = 0.4;
    core::NodeDetector detector(cfg);
    const auto alarms = detector.process_trace(trace).size();
    EXPECT_LE(alarms, prev) << "M = " << m;
    prev = alarms;
  }
}

TEST(DetectorProperties, StricterAfNeverRaisesMoreAlarms) {
  const auto trace = shared_trace();
  std::size_t prev = SIZE_MAX;
  for (double af : {0.3, 0.5, 0.7, 0.9}) {
    core::NodeDetectorConfig cfg;
    cfg.threshold_multiplier_m = 1.5;
    cfg.anomaly_frequency_threshold = af;
    core::NodeDetector detector(cfg);
    const auto alarms = detector.process_trace(trace).size();
    EXPECT_LE(alarms, prev) << "af = " << af;
    prev = alarms;
  }
}

// ---------------------------------------------- correlation invariances

std::vector<wsn::DetectionReport> random_reports(util::Rng& rng,
                                                 std::size_t n) {
  std::vector<wsn::DetectionReport> reports;
  for (std::size_t i = 0; i < n; ++i) {
    wsn::DetectionReport r;
    r.reporter = static_cast<wsn::NodeId>(i);
    r.grid_row = static_cast<std::int32_t>(i % 5);
    r.grid_col = static_cast<std::int32_t>(i / 5);
    r.position = {rng.uniform(0.0, 150.0), rng.uniform(0.0, 150.0)};
    r.onset_local_time_s = rng.uniform(50.0, 150.0);
    r.average_energy = rng.uniform(1.0, 200.0);
    reports.push_back(r);
  }
  return reports;
}

TEST(CorrelationProperties, TimeTranslationInvariant) {
  util::Rng rng(5);
  const auto line = util::Line2::through({60.0, 0.0}, 1.4);
  for (int trial = 0; trial < 20; ++trial) {
    auto reports = random_reports(rng, 20);
    const auto before = core::compute_correlation(reports, line);
    for (auto& r : reports) r.onset_local_time_s += 1234.5;
    const auto after = core::compute_correlation(reports, line);
    EXPECT_EQ(before.c, after.c);
    EXPECT_EQ(before.cnt, after.cnt);
    EXPECT_EQ(before.cne, after.cne);
  }
}

TEST(CorrelationProperties, EnergyMonotoneTransformInvariant) {
  // Cre depends only on the energy *order*: squaring positive energies
  // must not change anything.
  util::Rng rng(6);
  const auto line = util::Line2::through({60.0, 0.0}, 1.4);
  for (int trial = 0; trial < 20; ++trial) {
    auto reports = random_reports(rng, 20);
    const auto before = core::compute_correlation(reports, line);
    for (auto& r : reports) r.average_energy = r.average_energy * r.average_energy;
    const auto after = core::compute_correlation(reports, line);
    EXPECT_EQ(before.cne, after.cne);
  }
}

TEST(CorrelationProperties, BoundedInUnitInterval) {
  util::Rng rng(7);
  const auto line = util::Line2::through({10.0, -20.0}, 0.3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto reports =
        random_reports(rng, 1 + rng.uniform_int(30));
    for (auto mode : {core::CorrelationAggregate::kMean,
                      core::CorrelationAggregate::kProduct}) {
      core::CorrelationConfig cfg;
      cfg.aggregate = mode;
      const auto result = core::compute_correlation(reports, line, cfg);
      EXPECT_GE(result.c, 0.0);
      EXPECT_LE(result.c, 1.0 + 1e-12);
    }
  }
}

TEST(CorrelationProperties, SweepTimeTranslationInvariant) {
  util::Rng rng(8);
  const auto line = util::Line2::through({60.0, 0.0}, 1.5);
  for (int trial = 0; trial < 10; ++trial) {
    auto reports = random_reports(rng, 16);
    const double before = core::sweep_consistency(reports, line);
    for (auto& r : reports) r.onset_local_time_s += 999.0;
    const double after = core::sweep_consistency(reports, line);
    EXPECT_NEAR(before, after, 1e-9);
  }
}

// ---------------------------------------------- speed estimator scaling

TEST(SpeedProperties, TimestampTranslationInvariant) {
  core::SpeedQuad quad{100.0, 105.3, 99.1, 104.4};
  const auto before = core::estimate_speed_either_pairing(quad, 25.0);
  core::SpeedQuad shifted{quad.t1 + 500.0, quad.t2 + 500.0, quad.t3 + 500.0,
                          quad.t4 + 500.0};
  const auto after = core::estimate_speed_either_pairing(shifted, 25.0);
  ASSERT_TRUE(before && after);
  EXPECT_NEAR(before->speed_mps, after->speed_mps, 1e-9);
  EXPECT_NEAR(before->alpha_rad, after->alpha_rad, 1e-9);
}

TEST(SpeedProperties, JointScaleInvariance) {
  // Scaling the node spacing and every time difference by the same
  // factor leaves the speed unchanged (v ~ D / dt).
  core::SpeedQuad quad{100.0, 105.3, 99.1, 104.4};
  const double spacing_m = 25.0;
  const auto base = core::estimate_speed_either_pairing(quad, spacing_m);
  ASSERT_TRUE(base.has_value());

  const double k = 2.0;
  core::SpeedQuad scaled;
  scaled.t1 = 100.0;
  scaled.t2 = 100.0 + k * (quad.t2 - quad.t1);
  scaled.t3 = 100.0 + k * (quad.t3 - quad.t1);
  scaled.t4 = 100.0 + k * (quad.t4 - quad.t1);
  const auto rescaled =
      core::estimate_speed_either_pairing(scaled, spacing_m * k);
  ASSERT_TRUE(rescaled.has_value());
  EXPECT_NEAR(rescaled->speed_mps, base->speed_mps,
              1e-9 * base->speed_mps);
}

// ---------------------------------------------- sensing determinism

TEST(SensingProperties, IdenticalConfigIdenticalTrace) {
  const auto a = shared_trace();
  const auto b = shared_trace();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a.z[i], b.z[i]);
    EXPECT_EQ(a.x[i], b.x[i]);
  }
}

// ---------------------------------------------- kelvin geometry closure

TEST(KelvinProperties, ContainmentConsistentWithArrival) {
  // At the arrival instant the point lies on the wake boundary: slightly
  // later it is inside, slightly earlier outside.
  util::Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const double heading = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double speed = rng.uniform(3.0, 10.0);
    const util::Vec2 origin{0.0, 0.0};
    const util::Line2 line = util::Line2::through(origin, heading);
    const util::Vec2 p = origin + line.direction * rng.uniform(50.0, 200.0) +
                         line.direction.perp() * rng.uniform(-60.0, 60.0);
    const double t = wake::wake_front_arrival_time(origin, heading, speed, p);
    wake::ShipTrackConfig cfg;
    cfg.start = origin;
    cfg.heading_rad = heading;
    cfg.speed_mps = speed;
    const wake::ShipTrack track(cfg);
    EXPECT_TRUE(wake::wake_contains(track.pose(t + 0.2), p));
    EXPECT_FALSE(wake::wake_contains(track.pose(t - 0.2), p));
  }
}

}  // namespace
}  // namespace sid
