// Tests for the sink-level vessel tracker.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/tracker.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::core {
namespace {

TrackObservation obs(double t, double x, double y, double speed = 0.0,
                     double heading = 0.0) {
  TrackObservation o;
  o.time_s = t;
  o.position = {x, y};
  o.speed_mps = speed;
  o.heading_rad = heading;
  return o;
}

TEST(TrackerTest, FirstObservationOpensTrack) {
  Tracker tracker;
  const auto id = tracker.observe(obs(0.0, 10.0, 20.0));
  EXPECT_EQ(id, 1u);
  ASSERT_EQ(tracker.active_tracks().size(), 1u);
  EXPECT_FALSE(tracker.active_tracks()[0].confirmed());
  EXPECT_EQ(tracker.active_tracks()[0].observations, 1u);
}

TEST(TrackerTest, NearbyObservationsAssociate) {
  Tracker tracker;
  const auto a = tracker.observe(obs(0.0, 0.0, 0.0, 5.0, 0.0));
  const auto b = tracker.observe(obs(10.0, 52.0, 3.0));  // ~predicted (50,0)
  EXPECT_EQ(a, b);
  ASSERT_EQ(tracker.active_tracks().size(), 1u);
  EXPECT_TRUE(tracker.active_tracks()[0].confirmed());
}

TEST(TrackerTest, DistantObservationOpensSecondTrack) {
  Tracker tracker;
  const auto a = tracker.observe(obs(0.0, 0.0, 0.0));
  const auto b = tracker.observe(obs(5.0, 1000.0, 1000.0));
  EXPECT_NE(a, b);
  EXPECT_EQ(tracker.active_tracks().size(), 2u);
}

TEST(TrackerTest, VelocityConvergesToMotion) {
  Tracker tracker;
  // Vessel moving +x at 6 m/s, observed every 20 s; the cluster attaches
  // its own (noisy) speed estimate, as the SID decisions do.
  for (int i = 0; i <= 6; ++i) {
    tracker.observe(
        obs(20.0 * i, 120.0 * i, 0.0, 5.4 + 0.2 * (i % 2), 0.0));
  }
  ASSERT_EQ(tracker.active_tracks().size(), 1u);
  const auto& track = tracker.active_tracks()[0];
  EXPECT_NEAR(track.speed_mps(), 6.0, 1.2);
  EXPECT_NEAR(track.velocity.x, 6.0, 1.2);
  EXPECT_NEAR(track.velocity.y, 0.0, 0.8);
}

TEST(TrackerTest, PredictionFollowsConstantVelocity) {
  Tracker tracker;
  tracker.observe(obs(0.0, 0.0, 0.0, 5.0, 0.0));
  const auto& track = tracker.active_tracks()[0];
  const auto predicted = track.predict(10.0);
  EXPECT_NEAR(predicted.x, 50.0, 1e-9);
}

TEST(TrackerTest, ClusterSpeedMeasurementBlendsIn) {
  Tracker tracker;
  tracker.observe(obs(0.0, 0.0, 0.0));
  // The second observation confirms the track and carries a measured
  // speed; the unconfirmed track adopts it outright.
  tracker.observe(
      obs(20.0, 100.0, 0.0, util::knots_to_mps(10.0), 0.0));
  const auto& track = tracker.active_tracks()[0];
  EXPECT_NEAR(track.velocity.x, util::knots_to_mps(10.0), 0.5);
}

TEST(TrackerTest, StaleTracksRetire) {
  Tracker tracker;
  tracker.observe(obs(0.0, 0.0, 0.0));
  // Far away, long after the first track went silent.
  tracker.observe(obs(kTrackTimeoutS + 100.0, 5000.0, 0.0));
  EXPECT_EQ(tracker.active_tracks().size(), 1u);
  ASSERT_EQ(tracker.retired_tracks().size(), 1u);
  EXPECT_EQ(tracker.retired_tracks()[0].id, 1u);
}

TEST(TrackerTest, GateRadiusIsInclusive) {
  // A stationary track predicts its own position, so the observation's
  // distance to the prediction is exactly its offset.
  Tracker on_gate;
  const auto a = on_gate.observe(obs(0.0, 0.0, 0.0));
  EXPECT_EQ(on_gate.observe(obs(10.0, kGateRadiusM, 0.0)), a);
  EXPECT_EQ(on_gate.active_tracks().size(), 1u);

  Tracker beyond_gate;
  const auto b = beyond_gate.observe(obs(0.0, 0.0, 0.0));
  const double just_beyond = std::nextafter(kGateRadiusM, 1e9);
  EXPECT_NE(beyond_gate.observe(obs(10.0, just_beyond, 0.0)), b);
  EXPECT_EQ(beyond_gate.active_tracks().size(), 2u);
}

TEST(TrackerTest, TrackSilentExactlyTheTimeoutSurvives) {
  Tracker tracker;
  tracker.observe(obs(0.0, 0.0, 0.0));
  // Silent exactly kTrackTimeoutS: still active (a far observation opens
  // a second track, so nothing associates with the first).
  tracker.observe(obs(kTrackTimeoutS, 5000.0, 0.0));
  EXPECT_EQ(tracker.active_tracks().size(), 2u);
  EXPECT_TRUE(tracker.retired_tracks().empty());
  // Silent any longer: retired.
  tracker.observe(obs(std::nextafter(kTrackTimeoutS, 1e9), 5000.0, 0.0));
  EXPECT_EQ(tracker.active_tracks().size(), 1u);
  ASSERT_EQ(tracker.retired_tracks().size(), 1u);
  EXPECT_EQ(tracker.retired_tracks()[0].id, 1u);
}

TEST(TrackerTest, OutOfOrderObservationThrows) {
  Tracker tracker;
  tracker.observe(obs(100.0, 0.0, 0.0));
  EXPECT_THROW(tracker.observe(obs(50.0, 0.0, 0.0)), util::InvalidArgument);
}

// ------------------------------------------------------------ reduction

wsn::DetectionReport report_at(double x, double y, double energy,
                               std::int32_t row) {
  wsn::DetectionReport r;
  r.position = {x, y};
  r.average_energy = energy;
  r.grid_row = row;
  return r;
}

TEST(ToObservationTest, ProjectsWeightedCentroidOntoTravelLine) {
  ClusterDecisionResult verdict;
  verdict.intrusion = true;
  verdict.travel_line =
      util::Line2::through({60.0, 0.0}, std::numbers::pi / 2);
  std::vector<wsn::DetectionReport> reports{
      report_at(50.0, 0.0, 100.0, 0),
      report_at(75.0, 0.0, 100.0, 0),
      report_at(50.0, 25.0, 100.0, 1),
  };
  const auto observation = to_observation(verdict, reports, 123.0);
  ASSERT_TRUE(observation.has_value());
  EXPECT_NEAR(observation->time_s, 123.0, 1e-12);
  // Projection onto the vertical line at x = 60: x must be 60.
  EXPECT_NEAR(observation->position.x, 60.0, 1e-9);
  EXPECT_NEAR(observation->position.y, 25.0 / 3.0, 1e-9);
}

TEST(ToObservationTest, CarriesSpeedWhenAvailable) {
  ClusterDecisionResult verdict;
  verdict.intrusion = true;
  SpeedEstimate speed;
  speed.speed_mps = 5.0;
  speed.heading_rad = 1.0;
  verdict.speed = speed;
  std::vector<wsn::DetectionReport> reports{report_at(0, 0, 10.0, 0)};
  const auto observation = to_observation(verdict, reports, 1.0);
  ASSERT_TRUE(observation.has_value());
  EXPECT_NEAR(observation->speed_mps, 5.0, 1e-12);
  EXPECT_NEAR(observation->heading_rad, 1.0, 1e-12);
}

TEST(ToObservationTest, NonIntrusionRejected) {
  ClusterDecisionResult verdict;
  verdict.intrusion = false;
  std::vector<wsn::DetectionReport> reports{report_at(0, 0, 10.0, 0)};
  EXPECT_FALSE(to_observation(verdict, reports, 1.0).has_value());
  verdict.intrusion = true;
  EXPECT_FALSE(to_observation(verdict, {}, 1.0).has_value());
}

TEST(TrackerScenarioTest, CrossingVesselYieldsOneConfirmedTrack) {
  // Three successive cluster decisions along a northbound pass.
  Tracker tracker;
  const double v = util::knots_to_mps(10.0);
  for (int i = 0; i < 3; ++i) {
    const double t = 100.0 + 40.0 * i;
    tracker.observe(
        obs(t, 60.0, v * 40.0 * i, v, std::numbers::pi / 2));
  }
  ASSERT_EQ(tracker.active_tracks().size(), 1u);
  const auto& track = tracker.active_tracks()[0];
  EXPECT_TRUE(track.confirmed());
  EXPECT_EQ(track.observations, 3u);
  EXPECT_NEAR(track.speed_mps(), v, v * 0.3);
}

}  // namespace
}  // namespace sid::core
