#include "core/correlation.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/profile.h"
#include "util/error.h"
#include "util/stats.h"

namespace sid::core {

namespace {

/// Crt / Cre kernel: fraction of the row's reports in the largest subset
/// whose `values` are non-decreasing once the row is sorted by distance.
/// Reports within kDistanceTieToleranceM of each other in distance form a
/// tie group: the expected ordering says nothing about their mutual
/// order, so the group is internally sorted by value (it can never break
/// the subsequence).
double ordered_fraction(std::vector<std::pair<double, double>>& dist_value) {
  if (dist_value.size() <= 1) return 1.0;  // paper: 1 for a single report
  std::sort(dist_value.begin(), dist_value.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Greedy tie grouping on the sorted distances; sort each group by value.
  std::size_t group_start = 0;
  for (std::size_t i = 1; i <= dist_value.size(); ++i) {
    const bool boundary =
        i == dist_value.size() ||
        dist_value[i].first - dist_value[group_start].first >
            kDistanceTieToleranceM;
    if (!boundary) continue;
    std::sort(dist_value.begin() + static_cast<std::ptrdiff_t>(group_start),
              dist_value.begin() + static_cast<std::ptrdiff_t>(i),
              [](const auto& a, const auto& b) {
                return a.second < b.second;
              });
    group_start = i;
  }

  std::vector<double> values;
  values.reserve(dist_value.size());
  for (const auto& [d, v] : dist_value) values.push_back(v);
  const std::size_t n = values.size();
  const std::size_t ordered = util::longest_nondecreasing_subsequence(values);
  return static_cast<double>(ordered) / static_cast<double>(n);
}

double aggregate(const std::vector<double>& per_row,
                 CorrelationAggregate mode) {
  if (per_row.empty()) return 0.0;
  if (mode == CorrelationAggregate::kProduct) {
    double prod = 1.0;
    for (double v : per_row) prod *= v;
    return prod;
  }
  double sum = 0.0;
  for (double v : per_row) sum += v;
  return sum / static_cast<double>(per_row.size());
}

}  // namespace

CorrelationResult compute_correlation(
    std::span<const wsn::DetectionReport> reports,
    const util::Line2& travel_line, const CorrelationConfig& config) {
  SID_PROFILE_STAGE(obs::Stage::kCorrelation);
  CorrelationResult result;
  result.total_reports = reports.size();
  if (reports.empty()) return result;

  std::map<std::int32_t, std::vector<const wsn::DetectionReport*>> by_row;
  for (const auto& r : reports) by_row[r.grid_row].push_back(&r);

  std::vector<double> crt_rows;
  std::vector<double> cre_rows;
  for (auto& [row, row_reports] : by_row) {
    RowCorrelation rc;
    rc.row = row;
    rc.reports = row_reports.size();

    // Time correlation: closer to track => earlier onset.
    std::vector<std::pair<double, double>> dist_time;
    dist_time.reserve(row_reports.size());
    for (const auto* r : row_reports) {
      dist_time.emplace_back(travel_line.distance_to(r->position),
                             r->onset_local_time_s);
    }
    rc.crt = ordered_fraction(dist_time);

    // Energy correlation: closer to track => higher energy, i.e. negated
    // energies are non-decreasing with distance.
    std::vector<std::pair<double, double>> dist_energy;
    dist_energy.reserve(row_reports.size());
    for (const auto* r : row_reports) {
      dist_energy.emplace_back(travel_line.distance_to(r->position),
                               -r->average_energy);
    }
    rc.cre = ordered_fraction(dist_energy);

    crt_rows.push_back(rc.crt);
    cre_rows.push_back(rc.cre);
    result.rows.push_back(rc);
  }

  result.cnt = aggregate(crt_rows, config.aggregate);
  result.cne = aggregate(cre_rows, config.aggregate);
  result.c = result.cnt * result.cne;
  return result;
}

std::optional<util::Line2> fit_line(std::span<const util::Vec2> points) {
  if (points.size() < 2) return std::nullopt;
  util::Vec2 centroid;
  for (const auto& p : points) centroid += p;
  centroid = centroid / static_cast<double>(points.size());

  // 2x2 covariance; principal eigenvector is the line direction.
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (const auto& p : points) {
    const util::Vec2 d = p - centroid;
    sxx += d.x * d.x;
    sxy += d.x * d.y;
    syy += d.y * d.y;
  }
  if (sxx + syy <= 0.0) return std::nullopt;  // all points coincide

  const double trace_half = 0.5 * (sxx + syy);
  const double det = sxx * syy - sxy * sxy;
  const double lambda =
      trace_half + std::sqrt(std::max(0.0, trace_half * trace_half - det));
  // Eigenvector for lambda: (sxy, lambda - sxx), unless degenerate.
  util::Vec2 dir(sxy, lambda - sxx);
  if (dir.norm() < 1e-12) {
    dir = sxx >= syy ? util::Vec2(1.0, 0.0) : util::Vec2(0.0, 1.0);
  }
  return util::Line2{centroid, dir.normalized()};
}

std::optional<util::Line2> estimate_travel_line(
    std::span<const wsn::DetectionReport> reports) {
  std::map<std::int32_t, const wsn::DetectionReport*> strongest_per_row;
  for (const auto& r : reports) {
    auto [it, inserted] = strongest_per_row.try_emplace(r.grid_row, &r);
    if (!inserted && r.strength() > it->second->strength()) {
      it->second = &r;
    }
  }
  if (strongest_per_row.size() < 2) return std::nullopt;
  std::vector<util::Vec2> points;
  points.reserve(strongest_per_row.size());
  for (const auto& [row, r] : strongest_per_row) points.push_back(r->position);
  return fit_line(points);
}

namespace {

struct SweepPoint {
  double s = 0.0;  ///< along-track coordinate
  double d = 0.0;  ///< distance to the line
  double t = 0.0;  ///< onset time
};

struct SweepFit {
  double r2 = 0.0;
  double c0 = 0.0, c1 = 0.0, c2 = 0.0;
  bool valid = false;
};

/// OLS for t = c0 + c1*s + c2*d via normal equations; r2 in [0, 1].
SweepFit fit_sweep(const std::vector<SweepPoint>& points) {
  SweepFit fit;
  const auto n = static_cast<double>(points.size());
  if (points.size() < 4) return fit;
  double sum_s = 0, sum_d = 0, sum_t = 0;
  for (const auto& p : points) {
    sum_s += p.s;
    sum_d += p.d;
    sum_t += p.t;
  }
  const double mean_s = sum_s / n, mean_d = sum_d / n, mean_t = sum_t / n;

  double ss = 0, dd = 0, sd = 0, st = 0, dt = 0, tt = 0;
  for (const auto& p : points) {
    const double s = p.s - mean_s;
    const double d = p.d - mean_d;
    const double t = p.t - mean_t;
    ss += s * s;
    dd += d * d;
    sd += s * d;
    st += s * t;
    dt += d * t;
    tt += t * t;
  }
  fit.valid = true;
  if (tt <= 0.0) {  // all simultaneous: trivially consistent
    fit.r2 = 1.0;
    fit.c0 = mean_t;
    return fit;
  }
  const double det = ss * dd - sd * sd;
  if (std::abs(det) < 1e-9) {
    // Collinear regressors: the better single regressor.
    if (ss > 0.0) {
      fit.c1 = st / ss;
      fit.r2 = (st * st) / (ss * tt);
    }
    if (dd > 0.0 && (dt * dt) / (dd * tt) > fit.r2) {
      fit.c1 = 0.0;
      fit.c2 = dt / dd;
      fit.r2 = (dt * dt) / (dd * tt);
    }
  } else {
    fit.c1 = (st * dd - dt * sd) / det;
    fit.c2 = (dt * ss - st * sd) / det;
    fit.r2 = std::clamp((fit.c1 * st + fit.c2 * dt) / tt, 0.0, 1.0);
  }
  fit.c0 = mean_t - fit.c1 * mean_s - fit.c2 * mean_d;
  return fit;
}

}  // namespace

double sweep_consistency(std::span<const wsn::DetectionReport> reports,
                         const util::Line2& travel_line,
                         std::size_t min_reports) {
  const std::size_t floor_n = std::max<std::size_t>(min_reports, 4);
  if (reports.size() < floor_n) return 0.0;

  std::vector<SweepPoint> points;
  points.reserve(reports.size());
  for (const auto& r : reports) {
    points.push_back(SweepPoint{travel_line.along_track(r.position),
                                travel_line.distance_to(r.position),
                                r.onset_local_time_s});
  }

  // Consensus (RANSAC-style, deterministic): head-level report sets
  // carry a sizable false-alarm fraction, often at extreme distances
  // where least squares would absorb them as leverage points. Every
  // report triple proposes an exact plane t = c0 + c1*s + c2*d; the
  // plane with the largest inlier set (|residual| <= kInlierTolS) wins.
  // The score is the inlier-set R^2 scaled by the inlier fraction, and a
  // consensus below half the reports scores 0 — random alarms never
  // agree on a common sweep.
  //
  // The 6 s tolerance is deliberate (an earlier comment promised 4 s):
  // onset times are quantized to whole detector windows and jittered by
  // wake dispersion, so genuine sweep members routinely sit 4–6 s off the
  // exact plane. 4 s sheds those members, shrinking the consensus below
  // min_consensus on clean sweeps; 6 s keeps them while random alarms
  // (tens of seconds off) stay excluded. The boundary is pinned by a
  // regression test (correlation_test: InlierToleranceBoundary).
  const std::size_t n = points.size();
  constexpr double kInlierTolS = 6.0;
  const std::size_t min_consensus = std::max(floor_n, (n + 1) / 2);

  double best_score = -1.0;
  bool any_plane = false;

  // Cap the triple enumeration for very large clusters.
  const std::size_t stride = n > 40 ? n / 40 + 1 : 1;
  std::vector<SweepPoint> inliers;
  for (std::size_t i = 0; i < n; i += stride) {
    // Combinatorial triple over a stride-capped cluster (<= ~40 points),
    // not a spatial field scan — no index query expresses "all 3-subsets".
    for (std::size_t j = i + 1; j < n;  // lint:allow spatial-funnel
         j += stride) {
      for (std::size_t k = j + 1; k < n;  // lint:allow spatial-funnel
           k += stride) {
        // Exact plane through three points (Cramer).
        const double a11 = points[j].s - points[i].s;
        const double a12 = points[j].d - points[i].d;
        const double b1 = points[j].t - points[i].t;
        const double a21 = points[k].s - points[i].s;
        const double a22 = points[k].d - points[i].d;
        const double b2 = points[k].t - points[i].t;
        const double det = a11 * a22 - a12 * a21;
        if (std::abs(det) < 1e-9) continue;
        any_plane = true;
        const double c1 = (b1 * a22 - b2 * a12) / det;
        const double c2 = (b2 * a11 - b1 * a21) / det;
        const double c0 = points[i].t - c1 * points[i].s - c2 * points[i].d;

        // Physics prior on the candidate plane: the Kelvin arrival law
        // gives c1 = 1/V (sign follows the arbitrary PCA line direction)
        // and c2 = 1/(V tan theta) — the distance delay is always
        // positive and c2/|c1| = 1/tan(theta) ~ 2.75. Random alarm sets
        // propose planes violating these almost always.
        if (c2 < 0.0) continue;
        if (std::abs(c1) < 1e-6) continue;
        const double ratio = c2 / std::abs(c1);
        if (ratio < 0.8 || ratio > 8.0) continue;

        inliers.clear();
        for (std::size_t m = 0; m < n; ++m) {
          const double res =
              points[m].t - (c0 + c1 * points[m].s + c2 * points[m].d);
          if (std::abs(res) <= kInlierTolS) inliers.push_back(points[m]);
        }
        if (inliers.size() < min_consensus) continue;

        // Score this candidate: inlier-set R^2, quadratically penalized
        // by the discarded fraction so a lucky half-set consensus on
        // random alarms never approaches a clean full-set sweep.
        const SweepFit fit = fit_sweep(inliers);
        if (!fit.valid) continue;
        const double fraction =
            static_cast<double>(inliers.size()) / static_cast<double>(n);
        best_score = std::max(best_score, fit.r2 * fraction * fraction);
      }
    }
  }

  if (!any_plane) {
    // Every triple was degenerate: the reports' (s, d) coordinates are
    // perfectly collinear and no plane is identifiable. Fall back to the
    // direct OLS fit, which handles the collinear case explicitly.
    const SweepFit fallback = fit_sweep(points);
    return fallback.valid ? fallback.r2 : 0.0;
  }
  return std::max(best_score, 0.0);
}

std::vector<wsn::DetectionReport> dedup_strongest_per_node(
    std::span<const wsn::DetectionReport> reports) {
  std::map<wsn::NodeId, wsn::DetectionReport> per_node;
  for (const auto& r : reports) {
    auto [it, inserted] = per_node.try_emplace(r.reporter, r);
    if (!inserted && r.strength() > it->second.strength()) {
      it->second = r;
    }
  }
  std::vector<wsn::DetectionReport> out;
  out.reserve(per_node.size());
  for (auto& [id, r] : per_node) out.push_back(r);
  return out;
}

}  // namespace sid::core
