// Tests for the cluster-level spatio-temporal correlation (§IV-C1,
// Eq. 9-13) and the cluster evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "core/cluster.h"
#include "core/correlation.h"
#include "util/error.h"
#include "util/rng.h"

namespace sid::core {
namespace {

using util::Line2;
using util::Vec2;
using wsn::DetectionReport;

/// Node spacing D of the 25 m grid the test reports sit on.
constexpr double kSpacingM = 25.0;

/// A vertical travel line at x = x0 (ship sailing north).
Line2 vertical_line(double x0) {
  return Line2::through({x0, 0.0}, std::numbers::pi / 2);
}

DetectionReport make_report(std::int32_t row, std::int32_t col, double x,
                            double y, double onset, double energy) {
  DetectionReport r;
  r.reporter = static_cast<wsn::NodeId>(row * 100 + col);
  r.position = {x, y};
  r.grid_row = row;
  r.grid_col = col;
  r.onset_local_time_s = onset;
  r.average_energy = energy;
  return r;
}

/// Perfectly ordered row following the Kelvin arrival law for a 10 kn
/// ship sailing north along x = 0: nodes at columns 0..n-1
/// (x = 25*(col+1)); closer to the line = earlier + stronger.
std::vector<DetectionReport> ordered_row(std::int32_t row, std::size_t n,
                                         double t0 = 100.0) {
  constexpr double kV = 5.14;                  // 10 knots
  const double tan_theta = std::tan(0.3398);   // Kelvin angle
  std::vector<DetectionReport> out;
  for (std::size_t c = 0; c < n; ++c) {
    const double x = 25.0 * static_cast<double>(c + 1);
    const double y = 25.0 * row;
    const double t = t0 + y / kV + x / (kV * tan_theta);
    out.push_back(make_report(row, static_cast<std::int32_t>(c), x, y, t,
                              200.0 - 30.0 * static_cast<double>(c)));
  }
  return out;
}

TEST(CorrelationTest, PerfectlyOrderedRowsScoreOne) {
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 4; ++row) {
    auto r = ordered_row(row, 5);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  const auto result = compute_correlation(reports, vertical_line(0.0));
  EXPECT_NEAR(result.cnt, 1.0, 1e-12);
  EXPECT_NEAR(result.cne, 1.0, 1e-12);
  EXPECT_NEAR(result.c, 1.0, 1e-12);
  EXPECT_EQ(result.rows.size(), 4u);
  for (const auto& row : result.rows) {
    EXPECT_NEAR(row.crt, 1.0, 1e-12);
    EXPECT_NEAR(row.cre, 1.0, 1e-12);
  }
}

TEST(CorrelationTest, SingleReportRowScoresOne) {
  // Paper: "Crt(i) = 1 if there is only one report in one row".
  std::vector<DetectionReport> reports{
      make_report(0, 0, 25.0, 0.0, 100.0, 50.0)};
  const auto result = compute_correlation(reports, vertical_line(0.0));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NEAR(result.rows[0].crt, 1.0, 1e-12);
  EXPECT_NEAR(result.rows[0].cre, 1.0, 1e-12);
}

TEST(CorrelationTest, ReversedTimesScoreLow) {
  // Farthest node reports first: only one report is "ordered".
  std::vector<DetectionReport> reports;
  for (std::size_t c = 0; c < 5; ++c) {
    reports.push_back(make_report(0, static_cast<std::int32_t>(c),
                                  25.0 * static_cast<double>(c + 1), 0.0,
                                  100.0 - static_cast<double>(c) * 3.0,
                                  200.0 - 30.0 * static_cast<double>(c)));
  }
  const auto result = compute_correlation(reports, vertical_line(0.0));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NEAR(result.rows[0].crt, 0.2, 1e-12);  // LIS of reversed = 1 of 5
  EXPECT_NEAR(result.rows[0].cre, 1.0, 1e-12);  // energies still ordered
}

TEST(CorrelationTest, RandomFalseAlarmsScoreNearZeroProduct) {
  // Table I scenario: random times and energies, many rows. With the
  // mean aggregate, CNt*CNe settles near (E[LIS]/n)^2 ~ 0.25; with the
  // product aggregate it collapses toward zero like the paper's Table I.
  util::Rng rng(7);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 6; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      reports.push_back(make_report(row, col, 25.0 * (col + 1), 25.0 * row,
                                    100.0 + rng.uniform(0.0, 60.0),
                                    rng.uniform(1.0, 100.0)));
    }
  }
  CorrelationConfig product_cfg;
  product_cfg.aggregate = CorrelationAggregate::kProduct;
  const auto product =
      compute_correlation(reports, vertical_line(0.0), product_cfg);
  EXPECT_LT(product.c, 0.05);

  const auto mean = compute_correlation(reports, vertical_line(0.0));
  EXPECT_LT(mean.c, 0.55);  // well below the ordered value of 1.0
}

TEST(CorrelationTest, MeanAggregateAveragesRows) {
  // One perfect row, one fully reversed row (crt 1.0 and 0.2).
  std::vector<DetectionReport> reports = ordered_row(0, 5);
  for (std::size_t c = 0; c < 5; ++c) {
    reports.push_back(make_report(1, static_cast<std::int32_t>(c),
                                  25.0 * static_cast<double>(c + 1), 25.0,
                                  100.0 - static_cast<double>(c) * 3.0,
                                  200.0 - 30.0 * static_cast<double>(c)));
  }
  const auto result = compute_correlation(reports, vertical_line(0.0));
  EXPECT_NEAR(result.cnt, (1.0 + 0.2) / 2.0, 1e-12);
}

TEST(CorrelationTest, UsesUnsignedDistanceAcrossSides) {
  // Nodes straddling the line: ordering by |distance| regardless of side.
  std::vector<DetectionReport> reports;
  reports.push_back(make_report(0, 0, -10.0, 0.0, 100.0, 90.0));  // d=10
  reports.push_back(make_report(0, 1, 30.0, 0.0, 104.0, 60.0));   // d=30
  reports.push_back(make_report(0, 2, -50.0, 0.0, 108.0, 30.0));  // d=50
  const auto result = compute_correlation(reports, vertical_line(0.0));
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NEAR(result.rows[0].crt, 1.0, 1e-12);
  EXPECT_NEAR(result.rows[0].cre, 1.0, 1e-12);
}

TEST(CorrelationTest, EmptyReportsGiveZero) {
  const auto result = compute_correlation({}, vertical_line(0.0));
  EXPECT_EQ(result.c, 0.0);
  EXPECT_TRUE(result.rows.empty());
}

// ------------------------------------------------------------ line fit

TEST(LineFitTest, ExactLineThroughCollinearPoints) {
  std::vector<Vec2> points{{0.0, 0.0}, {1.0, 1.0}, {2.0, 2.0}, {5.0, 5.0}};
  const auto line = fit_line(points);
  ASSERT_TRUE(line.has_value());
  for (const auto& p : points) {
    EXPECT_NEAR(line->distance_to(p), 0.0, 1e-9);
  }
  // Direction is the diagonal (up to sign).
  EXPECT_NEAR(std::abs(line->direction.dot(Vec2(1, 1).normalized())), 1.0,
              1e-9);
}

TEST(LineFitTest, VerticalLineHandled) {
  std::vector<Vec2> points{{3.0, 0.0}, {3.0, 10.0}, {3.0, -5.0}};
  const auto line = fit_line(points);
  ASSERT_TRUE(line.has_value());
  EXPECT_NEAR(std::abs(line->direction.y), 1.0, 1e-9);
  EXPECT_NEAR(line->distance_to({3.0, 100.0}), 0.0, 1e-9);
}

TEST(LineFitTest, DegenerateInputsRejected) {
  EXPECT_FALSE(fit_line({}).has_value());
  std::vector<Vec2> one{{1.0, 2.0}};
  EXPECT_FALSE(fit_line(one).has_value());
  std::vector<Vec2> same{{1.0, 2.0}, {1.0, 2.0}, {1.0, 2.0}};
  EXPECT_FALSE(fit_line(same).has_value());
}

TEST(TravelLineEstimateTest, RecoversShipLineFromStrongestReports) {
  // Ship sailed north at x = 60: the strongest node in each row is the
  // closest one (at x = 50, i.e. column 1).
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 4; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      const double x = 25.0 * (col + 1);
      const double dist = std::abs(x - 60.0);
      reports.push_back(make_report(row, col, x, 25.0 * row, 100.0 + dist,
                                    300.0 / (1.0 + dist)));
    }
  }
  const auto line = estimate_travel_line(reports);
  ASSERT_TRUE(line.has_value());
  // The fitted line is vertical-ish through x = 50 (the nearest column).
  EXPECT_NEAR(std::abs(line->direction.y), 1.0, 1e-6);
  EXPECT_NEAR(line->distance_to({50.0, 0.0}), 0.0, 1.0);
}

TEST(TravelLineEstimateTest, SingleRowRejected) {
  const auto reports = ordered_row(0, 5);
  EXPECT_FALSE(estimate_travel_line(reports).has_value());
}

// ------------------------------------------------------------ evaluator

ClusterConfig oracle_config() {
  ClusterConfig cfg;
  cfg.known_travel_line = vertical_line(0.0);
  cfg.min_reports = 3;
  return cfg;
}

TEST(ClusterEvaluatorTest, CancelsOnTooFewReports) {
  ClusterEvaluator eval(oracle_config(), kSpacingM);
  std::vector<DetectionReport> reports{
      make_report(0, 0, 25.0, 0.0, 100.0, 50.0)};
  const auto verdict = eval.evaluate(reports);
  EXPECT_TRUE(verdict.cancelled);
  EXPECT_FALSE(verdict.intrusion);
}

TEST(ClusterEvaluatorTest, DetectsOrderedIntrusionAcrossFourRows) {
  ClusterEvaluator eval(oracle_config(), kSpacingM);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 4; ++row) {
    auto r = ordered_row(row, 5, 100.0 + row * 5.0);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  const auto verdict = eval.evaluate(reports);
  EXPECT_FALSE(verdict.cancelled);
  EXPECT_TRUE(verdict.intrusion);
  EXPECT_GT(verdict.correlation.c, 0.4);
}

TEST(ClusterEvaluatorTest, ThreeRowsNeverPassThreshold) {
  // §V-B1: the cluster must span at least 4 rows.
  ClusterEvaluator eval(oracle_config(), kSpacingM);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 3; ++row) {
    auto r = ordered_row(row, 5);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  const auto verdict = eval.evaluate(reports);
  EXPECT_FALSE(verdict.cancelled);
  EXPECT_FALSE(verdict.intrusion);
}

TEST(ClusterEvaluatorTest, RandomReportsRejected) {
  ClusterEvaluator eval(oracle_config(), kSpacingM);
  util::Rng rng(11);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 5; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      if (!rng.bernoulli(0.6)) continue;
      reports.push_back(make_report(row, col, 25.0 * (col + 1), 25.0 * row,
                                    100.0 + rng.uniform(0.0, 50.0),
                                    rng.uniform(1.0, 100.0)));
    }
  }
  ClusterConfig cfg = oracle_config();
  cfg.correlation.aggregate = CorrelationAggregate::kProduct;
  ClusterEvaluator strict(cfg, kSpacingM);
  const auto verdict = strict.evaluate(reports);
  EXPECT_FALSE(verdict.intrusion);
}

TEST(ClusterEvaluatorTest, EstimatesLineWhenNoOracle) {
  ClusterConfig cfg;
  cfg.min_reports = 3;
  ClusterEvaluator eval(cfg, kSpacingM);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 4; ++row) {
    auto r = ordered_row(row, 5, 100.0 + row * 5.0);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  const auto verdict = eval.evaluate(reports);
  EXPECT_FALSE(verdict.cancelled);
  ASSERT_TRUE(verdict.travel_line.has_value());
  EXPECT_TRUE(verdict.intrusion);
}

TEST(ClusterEvaluatorTest, SpeedEstimateAttachedOnIntrusion) {
  // Build reports whose onsets follow the analytic wake-arrival law so
  // the 2x2 block inversion has something consistent to work on.
  const double v = 5.14;  // 10 kn
  const double theta = std::asin(1.0 / 3.0);
  ClusterConfig cfg;
  cfg.known_travel_line =
      Line2::through({62.0, 0.0}, std::numbers::pi / 2);  // north at x=62
  cfg.min_reports = 4;
  ClusterEvaluator eval(cfg, kSpacingM);

  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 5; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      const Vec2 pos{25.0 * col, 25.0 * row};
      const double along = pos.y;  // ship travels +y; started at y=-200
      const double d = std::abs(pos.x - 62.0);
      const double t = (along + 200.0) / v + d / (v * std::tan(theta));
      reports.push_back(make_report(row, col, pos.x, pos.y, t,
                                    300.0 / (1.0 + d)));
    }
  }
  const auto verdict = eval.evaluate(reports);
  EXPECT_TRUE(verdict.intrusion);
  ASSERT_TRUE(verdict.speed.has_value());
  EXPECT_NEAR(verdict.speed->speed_mps, v, v * 0.25);
}

TEST(ClusterEvaluatorTest, NonPositiveSpacingThrows) {
  // The spacing is the deployment's D, an input rather than a constant.
  EXPECT_THROW(ClusterEvaluator(oracle_config(), 0.0), util::InvalidArgument);
  EXPECT_THROW(ClusterEvaluator(oracle_config(), -25.0),
               util::InvalidArgument);
}

// ------------------------------------------------------- sweep / dedup

TEST(SweepConsistencyTest, KelvinArrivalLawScoresNearOne) {
  // Onsets generated exactly from t = t0 + s/V + d/(V tan theta).
  const double v = 5.14;
  const double theta = std::asin(1.0 / 3.0);
  const Line2 line = vertical_line(62.0);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 5; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      const util::Vec2 pos{25.0 * col, 25.0 * row};
      const double t = 50.0 + pos.y / v +
                       std::abs(pos.x - 62.0) / (v * std::tan(theta));
      reports.push_back(make_report(row, col, pos.x, pos.y, t, 10.0));
    }
  }
  EXPECT_GT(sweep_consistency(reports, line), 0.99);
}

TEST(SweepConsistencyTest, NoisyArrivalsStillScoreHigh) {
  const double v = 5.14;
  const double theta = std::asin(1.0 / 3.0);
  const Line2 line = vertical_line(62.0);
  util::Rng rng(3);
  std::vector<DetectionReport> reports;
  for (std::int32_t row = 0; row < 5; ++row) {
    for (std::int32_t col = 0; col < 5; ++col) {
      const util::Vec2 pos{25.0 * col, 25.0 * row};
      const double t = 50.0 + pos.y / v +
                       std::abs(pos.x - 62.0) / (v * std::tan(theta)) +
                       rng.normal(0.0, 1.0);
      reports.push_back(make_report(row, col, pos.x, pos.y, t, 10.0));
    }
  }
  EXPECT_GT(sweep_consistency(reports, line), 0.7);
}

TEST(SweepConsistencyTest, RandomTimesScoreLow) {
  const Line2 line = vertical_line(62.0);
  util::Rng rng(9);
  double total = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<DetectionReport> reports;
    for (std::int32_t row = 0; row < 5; ++row) {
      for (std::int32_t col = 0; col < 5; ++col) {
        reports.push_back(make_report(row, col, 25.0 * col, 25.0 * row,
                                      rng.uniform(50.0, 120.0), 10.0));
      }
    }
    total += sweep_consistency(reports, line);
  }
  EXPECT_LT(total / 20.0, 0.25);
}

TEST(SweepConsistencyTest, TooFewReportsScoreZero) {
  const Line2 line = vertical_line(0.0);
  std::vector<DetectionReport> reports{
      make_report(0, 0, 25.0, 0.0, 100.0, 10.0),
      make_report(0, 1, 50.0, 0.0, 105.0, 10.0)};
  EXPECT_EQ(sweep_consistency(reports, line), 0.0);
}

TEST(SweepConsistencyTest, SimultaneousReportsTriviallyConsistent) {
  const Line2 line = vertical_line(0.0);
  std::vector<DetectionReport> reports;
  for (std::int32_t col = 0; col < 8; ++col) {
    reports.push_back(
        make_report(0, col, 25.0 * col, 10.0 * col, 100.0, 10.0));
  }
  EXPECT_EQ(sweep_consistency(reports, line), 1.0);
}

TEST(SweepConsistencyTest, InlierToleranceBoundary) {
  // Regression for the RANSAC inlier tolerance (kInlierTolS = 6 s; an
  // earlier comment claimed 4 s). Four reports sit exactly on the sweep
  // plane t = 100 + 0.2*s + 0.55*d at the corners of a square in (s, d);
  // a fifth sits at the square's centre with its onset offset by delta.
  // Geometry is chosen so every candidate plane through the centre point
  // either is degenerate (centre on a diagonal) or pushes the two
  // remaining corners to residual 2*delta — so the winning plane is
  // always the true one and the centre point's inlier status is decided
  // purely by |delta| vs the tolerance:
  //   delta just under 6 s -> inlier, full consensus (5/5), OLS score
  //   delta just over 6 s  -> outlier, score == r2 * (4/5)^2 ~ 0.64
  const Line2 line = vertical_line(0.0);
  const auto reports_with_offset = [&](double delta) {
    // position = (x, y) maps to (s, d) = (y, |x|).
    std::vector<DetectionReport> reports;
    reports.push_back(make_report(0, 0, 10.0, 0.0, 100.0 + 0.55 * 10.0,
                                  10.0));
    reports.push_back(make_report(1, 0, 10.0, 50.0,
                                  100.0 + 0.2 * 50.0 + 0.55 * 10.0, 10.0));
    reports.push_back(make_report(0, 1, 40.0, 0.0, 100.0 + 0.55 * 40.0,
                                  10.0));
    reports.push_back(make_report(1, 1, 40.0, 50.0,
                                  100.0 + 0.2 * 50.0 + 0.55 * 40.0, 10.0));
    reports.push_back(make_report(2, 0, 25.0, 25.0,
                                  100.0 + 0.2 * 25.0 + 0.55 * 25.0 + delta,
                                  10.0));
    return reports;
  };

  const double inlier_score =
      sweep_consistency(reports_with_offset(5.9), line, /*min_reports=*/4);
  const double outlier_score =
      sweep_consistency(reports_with_offset(6.1), line, /*min_reports=*/4);

  // 5.9 s: all five reports reach consensus, the OLS fit absorbs most of
  // the offset, and the un-penalized score stays high.
  EXPECT_GT(inlier_score, 0.8);
  // 6.1 s: the centre point falls outside every admissible plane, the
  // exact four-corner fit scores r2 = 1 and the quadratic fraction
  // penalty (4/5)^2 = 0.64 is the whole score.
  EXPECT_NEAR(outlier_score, 0.64, 1e-9);
  EXPECT_GT(inlier_score, outlier_score);
}

TEST(DedupTest, KeepsStrongestPerReporter) {
  auto a = make_report(0, 0, 25.0, 0.0, 100.0, 10.0);
  a.reporter = 7;
  a.peak_energy = 10.0;
  auto b = make_report(0, 0, 25.0, 0.0, 120.0, 5.0);
  b.reporter = 7;
  b.peak_energy = 50.0;
  auto c = make_report(0, 1, 50.0, 0.0, 101.0, 8.0);
  c.reporter = 8;
  const std::vector<DetectionReport> reports{a, b, c};
  const auto deduped = dedup_strongest_per_node(reports);
  ASSERT_EQ(deduped.size(), 2u);
  // Reporter 7 keeps the higher-peak report (onset 120).
  for (const auto& r : deduped) {
    if (r.reporter == 7) {
      EXPECT_EQ(r.onset_local_time_s, 120.0);
    }
  }
}

TEST(DedupTest, EmptyInput) {
  EXPECT_TRUE(dedup_strongest_per_node({}).empty());
}

}  // namespace
}  // namespace sid::core
