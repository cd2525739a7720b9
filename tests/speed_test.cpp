// Tests for the speed estimator (§IV-C2, Eq. 14-16, Fig. 10/12):
// inversion exactness against the wake-arrival law, quadrant handling,
// noise sensitivity, and quad selection from report sets.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "core/speed_estimator.h"
#include "util/error.h"
#include "shipwave/ship.h"
#include "util/rng.h"
#include "util/units.h"

namespace sid::core {
namespace {

/// Node spacing D of the 2x2 block quad_for places the sensors on.
constexpr double kSpacingM = 25.0;

/// Ground-truth quad for a ship on a straight track passing between the
/// two sensor columns at x = 0 and x = 25, nodes at y = 0 and y = 25.
SpeedQuad quad_for(double speed_knots, double alpha_deg,
                   double cross_x = 12.5) {
  const double v = util::knots_to_mps(speed_knots);
  const double phi = util::deg_to_rad(alpha_deg);
  wake::ShipTrackConfig cfg;
  cfg.start = {cross_x - 200.0 / std::tan(phi), -200.0};
  cfg.heading_rad = phi;
  cfg.speed_mps = v;
  const wake::ShipTrack track(cfg);
  SpeedQuad quad;
  quad.t1 = track.wake_arrival_time({0.0, 0.0});
  quad.t2 = track.wake_arrival_time({0.0, 25.0});
  quad.t3 = track.wake_arrival_time({25.0, 0.0});
  quad.t4 = track.wake_arrival_time({25.0, 25.0});
  return quad;
}

TEST(SpeedEstimatorTest, PerpendicularCrossingExact) {
  const auto quad = quad_for(10.0, 90.0);
  const auto est = estimate_speed_either_pairing(quad, kSpacingM);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->speed_knots, 10.0, 0.1);
  EXPECT_NEAR(util::rad_to_deg(est->alpha_rad), 90.0, 1.0);
}

TEST(SpeedEstimatorTest, PairSpeedsAgreeOnCleanData) {
  const auto quad = quad_for(16.0, 85.0);
  const auto est = estimate_speed_either_pairing(quad, kSpacingM);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->speed_pair_i_mps, est->speed_pair_j_mps,
              0.05 * est->speed_pair_i_mps);
}

TEST(SpeedEstimatorTest, DegenerateTimesRejected) {
  SpeedQuad quad;
  quad.t1 = quad.t2 = quad.t3 = quad.t4 = 100.0;
  EXPECT_FALSE(estimate_speed(quad, kSpacingM).has_value());
}

TEST(SpeedEstimatorTest, PairSpeedsConsistentByConstruction) {
  // Eq. 16 solves alpha so that the two pair speeds agree for *any*
  // timestamps — the inversion has exactly two unknowns. Property-check
  // on arbitrary quads whose column delays (2-20 s across D = 25 m) imply
  // speeds inside [kMinSpeedMps, kMaxSpeedMps].
  util::Rng rng(5);
  int estimated = 0;
  for (int trial = 0; trial < 100; ++trial) {
    SpeedQuad quad;
    quad.t1 = rng.uniform(100.0, 110.0);
    quad.t2 = quad.t1 + rng.uniform(2.0, 20.0);
    quad.t3 = rng.uniform(100.0, 110.0);
    quad.t4 = quad.t3 + rng.uniform(2.0, 20.0);
    const auto est = estimate_speed(quad, kSpacingM);
    if (!est) continue;
    ++estimated;
    EXPECT_GE(est->speed_mps, kMinSpeedMps);
    EXPECT_LE(est->speed_mps, kMaxSpeedMps);
    EXPECT_NEAR(est->speed_pair_i_mps, est->speed_pair_j_mps,
                1e-6 * std::abs(est->speed_pair_i_mps));
  }
  EXPECT_GT(estimated, 50);
}

TEST(SpeedEstimatorTest, ImplausibleSpeedsRejected) {
  // Coincidence-level timestamps imply absurd speeds; the plausibility
  // window rejects them.
  SpeedQuad quad;
  quad.t1 = 100.0;
  quad.t2 = 100.001;
  quad.t3 = 100.0;
  quad.t4 = 100.001;
  EXPECT_FALSE(estimate_speed(quad, kSpacingM).has_value());
}

TEST(SpeedEstimatorTest, NonPositiveSpacingThrows) {
  // The spacing is the deployment's D, an input rather than a constant.
  const SpeedQuad quad = quad_for(10.0, 90.0);
  EXPECT_THROW(estimate_speed(quad, 0.0), util::InvalidArgument);
  EXPECT_THROW(estimate_speed(quad, -kSpacingM), util::InvalidArgument);
  EXPECT_THROW(estimate_speed_either_pairing(quad, 0.0),
               util::InvalidArgument);
}

TEST(SpeedEstimatorTest, TimestampNoiseKeepsErrorBounded) {
  // Fig. 12: with realistic onset jitter the error stays within ~20 %.
  util::Rng rng(21);
  int within = 0, total = 0;
  for (int trial = 0; trial < 200; ++trial) {
    auto quad = quad_for(10.0, 80.0 + rng.uniform(0.0, 20.0));
    quad.t1 += rng.normal(0.0, 0.15);
    quad.t2 += rng.normal(0.0, 0.15);
    quad.t3 += rng.normal(0.0, 0.15);
    quad.t4 += rng.normal(0.0, 0.15);
    const auto est = estimate_speed_either_pairing(quad, kSpacingM);
    if (!est) continue;
    ++total;
    if (std::abs(est->speed_knots - 10.0) / 10.0 < 0.2) ++within;
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(within) / static_cast<double>(total), 0.8);
}

TEST(SpeedEstimatorTest, EitherPairingResolvesColumnAmbiguity) {
  // Swap the columns (as if the deployment labelled them the other way):
  // the either-pairing wrapper should still recover the speed.
  const auto quad = quad_for(12.0, 88.0);
  SpeedQuad swapped;
  swapped.t1 = quad.t3;
  swapped.t2 = quad.t4;
  swapped.t3 = quad.t1;
  swapped.t4 = quad.t2;
  const auto est = estimate_speed_either_pairing(swapped, kSpacingM);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->speed_knots, 12.0, 1.0);
}

// ------------------------------------------------------------ selection

wsn::DetectionReport report_at(std::int32_t row, std::int32_t col,
                               double onset, double energy) {
  wsn::DetectionReport r;
  r.reporter = static_cast<wsn::NodeId>(row * 100 + col);
  r.position = {25.0 * col, 25.0 * row};
  r.grid_row = row;
  r.grid_col = col;
  r.onset_local_time_s = onset;
  r.average_energy = energy;
  return r;
}

TEST(SelectQuadTest, PicksHighestEnergyBlock) {
  std::vector<wsn::DetectionReport> reports;
  // Weak block at (0,0); strong block at (2,2).
  for (std::int32_t dr = 0; dr < 2; ++dr) {
    for (std::int32_t dc = 0; dc < 2; ++dc) {
      reports.push_back(report_at(dr, dc, 10.0 + dr + dc, 5.0));
      reports.push_back(report_at(2 + dr, 2 + dc, 20.0 + dr + dc, 50.0));
    }
  }
  const auto quad = select_speed_quad(reports);
  ASSERT_TRUE(quad.has_value());
  // The strong block's onsets are 20/21/21/22.
  EXPECT_NEAR(quad->t1, 20.0, 1e-12);
  EXPECT_NEAR(quad->t2, 21.0, 1e-12);
  EXPECT_NEAR(quad->t3, 21.0, 1e-12);
  EXPECT_NEAR(quad->t4, 22.0, 1e-12);
}

TEST(SelectQuadTest, IncompleteBlocksRejected) {
  std::vector<wsn::DetectionReport> reports;
  reports.push_back(report_at(0, 0, 10.0, 5.0));
  reports.push_back(report_at(0, 1, 11.0, 5.0));
  reports.push_back(report_at(1, 0, 12.0, 5.0));
  // (1,1) missing.
  EXPECT_FALSE(select_speed_quad(reports).has_value());
  reports.push_back(report_at(1, 1, 13.0, 5.0));
  EXPECT_TRUE(select_speed_quad(reports).has_value());
}

TEST(SelectQuadTest, DuplicateCellKeepsStrongest) {
  std::vector<wsn::DetectionReport> reports;
  reports.push_back(report_at(0, 0, 10.0, 5.0));
  reports.push_back(report_at(0, 0, 99.0, 50.0));  // stronger duplicate
  reports.push_back(report_at(0, 1, 11.0, 5.0));
  reports.push_back(report_at(1, 0, 12.0, 5.0));
  reports.push_back(report_at(1, 1, 13.0, 5.0));
  const auto quad = select_speed_quad(reports);
  ASSERT_TRUE(quad.has_value());
  EXPECT_NEAR(quad->t1, 99.0, 1e-12);
}

TEST(SelectQuadTest, EmptyReportsRejected) {
  EXPECT_FALSE(select_speed_quad({}).has_value());
}

// ------------------------------- parameterized: the paper's Fig. 12 grid

class SpeedSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SpeedSweep, CleanInversionWithinFivePercent) {
  const auto [speed_knots, alpha_deg] = GetParam();
  const auto quad = quad_for(speed_knots, alpha_deg);
  const auto est = estimate_speed_either_pairing(quad, kSpacingM);
  ASSERT_TRUE(est.has_value())
      << "speed " << speed_knots << " alpha " << alpha_deg;
  EXPECT_NEAR(est->speed_knots, speed_knots, speed_knots * 0.05)
      << "alpha " << alpha_deg;
}

INSTANTIATE_TEST_SUITE_P(
    PaperSpeedsAndAngles, SpeedSweep,
    ::testing::Combine(::testing::Values(6.0, 10.0, 13.0, 16.0, 20.0),
                       ::testing::Values(75.0, 80.0, 85.0, 90.0, 95.0,
                                         100.0, 105.0)));

}  // namespace
}  // namespace sid::core
