// Ship speed estimation from four wake-arrival timestamps (§IV-C2,
// Eq. 14-16, Fig. 10).
//
// Geometry (derived in DESIGN.md §4.5 and verified against the wake
// simulator in tests): the four nodes form a 2x2 block of the grid with
// spacing D. Pair i is one column of the block (S_i and S_i' separated by
// D along the column direction), pair j the adjacent column, and the ship
// passes between the two columns. alpha is the angle between the sailing
// line and the row direction. With theta the Kelvin angle (the paper uses
// 20 deg), the wake front reaches the four nodes at t1, t2 (pair i,
// near-to-far) and t3, t4 (pair j), and:
//
//   tan(alpha) = ((t2 + t4 - t1 - t3) / (t2 + t3 - t1 - t4)) * cot(theta)
//   v_i = D * sin(70deg + alpha) / ((t2 - t1) * sin(theta))     (Eq. 14)
//   v_j = D * sin(alpha - 70deg) / ((t4 - t3) * sin(theta))     (Eq. 15)
//
// (For general theta the 70 deg constants are 90 deg - theta; we keep
// them parametric.) Both pair speeds estimate the same v; the estimator
// returns their combination and flags inconsistent quadruples.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "wsn/messages.h"

namespace sid::core {

/// Kelvin angle used by the inversion; the paper rounds to 20 deg.
inline constexpr double kInversionThetaDeg = 20.0;
/// Plausibility window for marine surface craft. Eq. 16 solves alpha so
/// that the two pair speeds agree *by construction* (any four timestamps
/// yield a self-consistent v), so the only way to reject a garbage
/// quadruple is a physical range check.
inline constexpr double kMinSpeedMps = 0.5;
inline constexpr double kMaxSpeedMps = 40.0;  ///< ~78 knots

static_assert(kInversionThetaDeg > 0.0 && kInversionThetaDeg < 45.0,
              "theta must be in (0, 45) deg");
static_assert(kMinSpeedMps > 0.0 && kMinSpeedMps < kMaxSpeedMps,
              "the speed window must be a positive interval");

struct SpeedEstimate {
  double speed_mps = 0.0;
  double speed_knots = 0.0;
  double alpha_rad = 0.0;       ///< sailing-line angle from the row axis
  double speed_pair_i_mps = 0.0;
  double speed_pair_j_mps = 0.0;
  /// Direction of travel along the sailing line (§IV-C2: "easy to obtain
  /// with the timestamps of the four nodes"): +1 when the ship moves
  /// toward increasing row index (the wake front sweeps the near-row
  /// nodes first), -1 otherwise.
  int row_direction = +1;
  /// Full travel heading from the row axis, radians in (-pi, pi]:
  /// alpha when row_direction is +1, alpha - pi otherwise.
  double heading_rad = 0.0;
};

/// Timestamps of the 2x2 block: t1/t2 the near/far node of one column,
/// t3/t4 of the adjacent column.
struct SpeedQuad {
  double t1 = 0.0;
  double t2 = 0.0;
  double t3 = 0.0;
  double t4 = 0.0;
};

/// Inverts Eq. 16 for a grid of node spacing D = `node_spacing_m` (the
/// deployment's NetworkConfig::spacing_m; v is proportional to D).
/// Returns nullopt when the timestamps are degenerate (coincident pair
/// times) or the speed falls outside [kMinSpeedMps, kMaxSpeedMps]. Throws
/// util::InvalidArgument when the spacing is not positive.
std::optional<SpeedEstimate> estimate_speed(const SpeedQuad& quad,
                                            double node_spacing_m);

/// Tries both assignments of the two columns to pairs (i, j) and returns
/// the better (consistent, positive) estimate, as a deployment cannot
/// know a priori which side of the track each column is on.
std::optional<SpeedEstimate> estimate_speed_either_pairing(
    const SpeedQuad& quad, double node_spacing_m);

/// Picks the best 2x2 block from a set of reports (per the paper: "we
/// only record the reports which have the highest detected energy") and
/// builds its SpeedQuad from the onset timestamps. Returns nullopt when
/// no complete block exists.
std::optional<SpeedQuad> select_speed_quad(
    std::span<const wsn::DetectionReport> reports);

}  // namespace sid::core
