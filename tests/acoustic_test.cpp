// Tests for the acoustic substrate (paper §VII future work). The sink's
// accel+acoustic fuser is covered in fusion_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "acoustic/hydrophone.h"
#include "acoustic/propagation.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::acoustic {
namespace {

constexpr double kTenKnots = 5.14444;

// ---------------------------------------------------------------- sonar

TEST(SourceModelTest, ReferenceSpeedGivesBaseLevel) {
  const SourceModel model;
  EXPECT_NEAR(model.source_level_db(model.reference_speed_mps),
              model.base_level_db, 1e-12);
}

TEST(SourceModelTest, RossScalingSixtyLogV) {
  const SourceModel model;
  const double doubled = model.source_level_db(2.0 * model.reference_speed_mps);
  EXPECT_NEAR(doubled - model.base_level_db, 60.0 * std::log10(2.0), 1e-9);
}

TEST(SourceModelTest, RejectsNonPositiveSpeed) {
  const SourceModel model;
  EXPECT_THROW(model.source_level_db(0.0), util::InvalidArgument);
}

TEST(PropagationTest, PracticalSpreading) {
  const PropagationModel prop;
  // 15*log10(100) = 30 dB plus ~0.006 dB absorption.
  EXPECT_NEAR(prop.transmission_loss_db(100.0), 30.0, 0.05);
  // 10x range costs 15 dB.
  EXPECT_NEAR(prop.transmission_loss_db(1000.0) -
                  prop.transmission_loss_db(100.0),
              15.0, 0.1);
}

TEST(PropagationTest, NearFieldClamp) {
  const PropagationModel prop;
  EXPECT_EQ(prop.transmission_loss_db(0.0),
            prop.transmission_loss_db(prop.min_range_m));
}

TEST(AmbientNoiseTest, RougherSeasAreLouder) {
  EXPECT_LT(ambient_noise_db(ocean::SeaState::kCalm),
            ambient_noise_db(ocean::SeaState::kModerate));
  EXPECT_LT(ambient_noise_db(ocean::SeaState::kModerate),
            ambient_noise_db(ocean::SeaState::kRough));
}

TEST(SonarEquationTest, SnrFallsWithRangeAndSea) {
  const SonarEquation sonar;
  const double near = sonar.snr_db(kTenKnots, 50.0, ocean::SeaState::kCalm);
  const double far = sonar.snr_db(kTenKnots, 500.0, ocean::SeaState::kCalm);
  EXPECT_GT(near, far);
  const double rough = sonar.snr_db(kTenKnots, 50.0, ocean::SeaState::kRough);
  EXPECT_GT(near, rough);
}

TEST(SonarEquationTest, FasterShipIsLouder) {
  const SonarEquation sonar;
  EXPECT_GT(sonar.snr_db(2.0 * kTenKnots, 100.0, ocean::SeaState::kCalm),
            sonar.snr_db(kTenKnots, 100.0, ocean::SeaState::kCalm));
}

// ------------------------------------------------------------ hydrophone

wake::ShipTrack passing_track(double speed_mps = kTenKnots) {
  wake::ShipTrackConfig cfg;
  cfg.start = {0.0, -500.0};
  cfg.heading_rad = std::numbers::pi / 2;
  cfg.speed_mps = speed_mps;
  return wake::ShipTrack(cfg);
}

TEST(HydrophoneTest, DetectsClosePassReliably) {
  HydrophoneConfig cfg;
  cfg.false_alarm_rate_per_hour = 0.0;
  Hydrophone phone({50.0, 0.0}, cfg);
  const std::vector<wake::ShipTrack> ships{passing_track()};
  const auto contacts =
      phone.run(ships, 0.0, 200.0, ocean::SeaState::kCalm);
  // The boat approaches within ~50 m around t=97 s: many contacts.
  EXPECT_GT(contacts.size(), 10u);
  for (const auto& c : contacts) EXPECT_FALSE(c.clutter);
}

TEST(HydrophoneTest, SilentWithoutShipsAndClutter) {
  HydrophoneConfig cfg;
  cfg.false_alarm_rate_per_hour = 0.0;
  Hydrophone phone({0.0, 0.0}, cfg);
  const auto contacts = phone.run({}, 0.0, 600.0, ocean::SeaState::kCalm);
  EXPECT_TRUE(contacts.empty());
}

TEST(HydrophoneTest, ClutterRateApproximatelyPoisson) {
  HydrophoneConfig cfg;
  cfg.false_alarm_rate_per_hour = 60.0;  // one per minute
  cfg.seed = 5;
  Hydrophone phone({0.0, 0.0}, cfg);
  const auto contacts =
      phone.run({}, 0.0, 3600.0, ocean::SeaState::kCalm);
  EXPECT_GT(contacts.size(), 35u);
  EXPECT_LT(contacts.size(), 90u);
  for (const auto& c : contacts) EXPECT_TRUE(c.clutter);
}

TEST(HydrophoneTest, RoughSeaMasksDistantShip) {
  HydrophoneConfig cfg;
  cfg.false_alarm_rate_per_hour = 0.0;
  // Distant parallel track: 800 m abeam.
  wake::ShipTrackConfig track_cfg;
  track_cfg.start = {800.0, -500.0};
  track_cfg.heading_rad = std::numbers::pi / 2;
  track_cfg.speed_mps = kTenKnots;
  const std::vector<wake::ShipTrack> ships{wake::ShipTrack(track_cfg)};

  Hydrophone calm_phone({0.0, 0.0}, cfg);
  const auto calm_contacts =
      calm_phone.run(ships, 0.0, 200.0, ocean::SeaState::kCalm);
  Hydrophone rough_phone({0.0, 0.0}, cfg);
  const auto rough_contacts =
      rough_phone.run(ships, 0.0, 200.0, ocean::SeaState::kRough);
  EXPECT_GE(calm_contacts.size(), rough_contacts.size());
}

TEST(HydrophoneTest, ContactsRespectShipStartTime) {
  HydrophoneConfig cfg;
  cfg.false_alarm_rate_per_hour = 0.0;
  wake::ShipTrackConfig track_cfg;
  track_cfg.start = {10.0, 0.0};  // right next to the phone...
  track_cfg.heading_rad = 0.0;
  track_cfg.speed_mps = kTenKnots;
  track_cfg.start_time_s = 100.0;  // ...but only from t = 100
  const std::vector<wake::ShipTrack> ships{wake::ShipTrack(track_cfg)};
  Hydrophone phone({0.0, 0.0}, cfg);
  const auto contacts =
      phone.run(ships, 0.0, 150.0, ocean::SeaState::kCalm);
  for (const auto& c : contacts) EXPECT_GE(c.time_s, 100.0);
  EXPECT_FALSE(contacts.empty());
}

TEST(HydrophoneTest, RejectsBadConfig) {
  HydrophoneConfig cfg;
  cfg.integration_period_s = 0.0;
  EXPECT_THROW(Hydrophone({0, 0}, cfg), util::InvalidArgument);
  cfg = {};
  cfg.false_alarm_rate_per_hour = -1.0;
  EXPECT_THROW(Hydrophone({0, 0}, cfg), util::InvalidArgument);
}

}  // namespace
}  // namespace sid::acoustic
