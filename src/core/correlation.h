// Cluster-level spatio-temporal correlation (§IV-C1, Eq. 9-13).
//
// A real ship pass disturbs the grid row by row: within each row, nodes
// closer to the sailing line are reached earlier (temporal correlation)
// and harder (energy correlation, by the Eq. 1 decay). False alarms from
// wind, animals or hardware faults carry neither ordering.
//
// Per row i with n active reports, the paper defines Crt(i) = N / n where
// N is "the number of ordered reports". We read N as the size of the
// largest subset consistent with the expected ordering — computed as the
// longest non-decreasing subsequence of report times after sorting the
// row by distance to the travel line (resp. non-increasing energies for
// Cre). A perfectly ordered row scores 1; random false alarms score
// ~ E[LIS]/n (Table I's near-zero products).
//
// The paper prints CNt = sum(Crt(i)) (Eq. 10), which would exceed 1 and
// contradict Tables I/II; the mean reproduces both tables' shape, and the
// product is available as a policy (DESIGN.md §4.3). The final
// coefficient is C = CNt * CNe (Eq. 13), thresholded at 0.4 for clusters
// of at least 4 rows (§V-B1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/geometry.h"
#include "wsn/messages.h"

namespace sid::core {

enum class CorrelationAggregate {
  kMean,     ///< CN = mean over rows (default; matches Tables I/II shape)
  kProduct,  ///< CN = product over rows (the literal Eq. 10/12 reading)
};

/// Reports whose distances to the travel line differ by less than this
/// are distance ties: the wake front reaches them near-simultaneously
/// (nodes on opposite sides of the track, or the geometric quantization
/// of a 25 m grid), so their mutual time/energy order carries no
/// information and must not count against the score.
inline constexpr double kDistanceTieToleranceM = 8.0;

struct CorrelationConfig {
  CorrelationAggregate aggregate = CorrelationAggregate::kMean;
};

struct RowCorrelation {
  std::int32_t row = 0;
  std::size_t reports = 0;
  double crt = 0.0;  ///< Eq. 9
  double cre = 0.0;  ///< Eq. 11
};

struct CorrelationResult {
  double cnt = 0.0;  ///< Eq. 10 (aggregated Crt)
  double cne = 0.0;  ///< Eq. 12 (aggregated Cre)
  double c = 0.0;    ///< Eq. 13: C = CNt * CNe
  std::vector<RowCorrelation> rows;
  std::size_t total_reports = 0;
};

/// Computes the correlation coefficient of a report set against a travel
/// line. Reports are grouped by their grid_row; within each row they are
/// sorted by (unsigned) distance to `travel_line`.
CorrelationResult compute_correlation(
    std::span<const wsn::DetectionReport> reports,
    const util::Line2& travel_line, const CorrelationConfig& config = {});

/// Estimates the ship's travel line from the reports themselves: the
/// strongest-energy report of each row approximates the point where the
/// track crossed that row; a total-least-squares (PCA) line through those
/// points is the estimate. Requires reports spanning >= 2 rows.
std::optional<util::Line2> estimate_travel_line(
    std::span<const wsn::DetectionReport> reports);

/// Total-least-squares line fit through points (PCA direction). Requires
/// >= 2 distinct points.
std::optional<util::Line2> fit_line(std::span<const util::Vec2> points);

/// Sweep consistency: R^2 of the regression
///   onset_time ~ c0 + c1 * (along-track coordinate) + c2 * (distance)
/// over the report set. The Kelvin arrival law is exactly linear in both
/// regressors (t = t0 + s/V + d/(V tan theta)), so a real pass scores
/// near 1 while false alarms score near 0 — a cluster-level cue the
/// per-row orderings cannot provide. Returns 0 for fewer than
/// `min_reports` reports or a degenerate design matrix.
double sweep_consistency(std::span<const wsn::DetectionReport> reports,
                         const util::Line2& travel_line,
                         std::size_t min_reports = 6);

/// Keeps each reporter's strongest report (by strength()); the wire
/// protocol can deliver several alarms per node per pass (front train,
/// transverse tail, false alarms) and the correlation statistics assume
/// one observation per node.
std::vector<wsn::DetectionReport> dedup_strongest_per_node(
    std::span<const wsn::DetectionReport> reports);

}  // namespace sid::core
