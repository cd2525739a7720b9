#include "core/speed_estimator.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>

#include "util/error.h"
#include "util/units.h"

namespace sid::core {

std::optional<SpeedEstimate> estimate_speed(const SpeedQuad& quad,
                                            double node_spacing_m) {
  util::require(node_spacing_m > 0.0,
                "estimate_speed: spacing must be positive");

  const double theta = util::deg_to_rad(kInversionThetaDeg);
  const double dt_i = quad.t2 - quad.t1;
  const double dt_j = quad.t4 - quad.t3;
  if (std::abs(dt_i) < 1e-6 || std::abs(dt_j) < 1e-6) return std::nullopt;

  // Eq. 16: tan(alpha) = (num / den) * cot(theta). atan2 keeps the
  // quadrant when the denominator goes negative (alpha > 90 deg).
  const double num = quad.t2 + quad.t4 - quad.t1 - quad.t3;
  const double den = quad.t2 + quad.t3 - quad.t1 - quad.t4;
  if (std::abs(num) < 1e-9 && std::abs(den) < 1e-9) return std::nullopt;
  const double alpha = std::atan2(num / std::tan(theta), den);

  // Pair speeds; with general theta the paper's 70 deg constants become
  // 90 deg - theta: sin(70 + alpha) == cos(alpha - theta) and
  // sin(alpha - 70) == -cos(alpha + theta) at theta = 20 deg.
  const double d = node_spacing_m;
  const double v_i = d * std::cos(alpha - theta) / (dt_i * std::sin(theta));
  const double v_j = -d * std::cos(alpha + theta) / (dt_j * std::sin(theta));

  if (v_i <= 0.0 || v_j <= 0.0) return std::nullopt;
  if (!std::isfinite(v_i) || !std::isfinite(v_j)) return std::nullopt;

  const double v_mean = 0.5 * (v_i + v_j);
  if (v_mean < kMinSpeedMps || v_mean > kMaxSpeedMps) {
    return std::nullopt;
  }

  SpeedEstimate est;
  est.alpha_rad = alpha;
  est.speed_pair_i_mps = v_i;
  est.speed_pair_j_mps = v_j;
  // Harmonic-free symmetric combination: arithmetic mean of the two
  // independent pair estimates.
  est.speed_mps = 0.5 * (v_i + v_j);
  est.speed_knots = util::mps_to_knots(est.speed_mps);
  // Direction: the wake front sweeps the block in the travel direction,
  // so the column-mates' time order tells whether the ship moves toward
  // increasing or decreasing rows (t2 is the higher-row node of pair i).
  est.row_direction = (quad.t2 - quad.t1) + (quad.t4 - quad.t3) >= 0.0
                          ? +1
                          : -1;
  est.heading_rad = est.row_direction > 0
                        ? alpha
                        : util::wrap_angle(alpha - std::numbers::pi);
  return est;
}

std::optional<SpeedEstimate> estimate_speed_either_pairing(
    const SpeedQuad& quad, double node_spacing_m) {
  const auto direct = estimate_speed(quad, node_spacing_m);
  SpeedQuad swapped;
  swapped.t1 = quad.t3;
  swapped.t2 = quad.t4;
  swapped.t3 = quad.t1;
  swapped.t4 = quad.t2;
  const auto crossed = estimate_speed(swapped, node_spacing_m);

  // Both pairings are internally consistent when valid (Eq. 16 enforces
  // pair agreement); prefer the direct assignment, falling back to the
  // swapped one when only it produced a physical estimate.
  if (direct) return direct;
  return crossed;
}

std::optional<SpeedQuad> select_speed_quad(
    std::span<const wsn::DetectionReport> reports) {
  // Keep the strongest report per grid cell.
  std::map<std::pair<std::int32_t, std::int32_t>,
           const wsn::DetectionReport*>
      by_cell;
  for (const auto& r : reports) {
    auto key = std::make_pair(r.grid_row, r.grid_col);
    auto [it, inserted] = by_cell.try_emplace(key, &r);
    if (!inserted && r.strength() > it->second->strength()) {
      it->second = &r;
    }
  }

  // Scan all 2x2 blocks; pick the one with the highest total energy
  // (the paper keeps "the reports which have the highest detected
  // energy").
  double best_energy = -1.0;
  std::optional<SpeedQuad> best;
  for (const auto& [cell, r00] : by_cell) {
    const auto [row, col] = cell;
    const auto r10 = by_cell.find({row + 1, col});      // S_i' above S_i
    const auto r01 = by_cell.find({row, col + 1});      // S_j
    const auto r11 = by_cell.find({row + 1, col + 1});  // S_j'
    if (r10 == by_cell.end() || r01 == by_cell.end() ||
        r11 == by_cell.end()) {
      continue;
    }
    const double energy = r00->strength() + r10->second->strength() +
                          r01->second->strength() +
                          r11->second->strength();
    if (energy <= best_energy) continue;
    best_energy = energy;
    SpeedQuad quad;
    quad.t1 = r00->onset_local_time_s;
    quad.t2 = r10->second->onset_local_time_s;
    quad.t3 = r01->second->onset_local_time_s;
    quad.t4 = r11->second->onset_local_time_s;
    best = quad;
  }
  return best;
}

}  // namespace sid::core
