// Temporary-cluster decision logic (§IV-C, Algorithm SID procedures
// SetUpTempCluster / SpaceTimeDataProcessing).
//
// A node raising an alarm while not in a temporary cluster becomes the
// temporary cluster head, floods an invite within a hop bound (6 in the
// paper), and collects detection reports for a window. At the window's
// end the head either cancels the cluster (insufficient support — its own
// alarm was likely false) or evaluates the spatio-temporal correlation,
// estimates the ship speed when enough well-placed reports exist, and
// forwards a positive decision toward the sink.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/correlation.h"
#include "core/speed_estimator.h"
#include "util/geometry.h"
#include "wsn/messages.h"

namespace sid::core {

/// Flood radius of the invite, hops (paper: "within six steps").
inline constexpr std::size_t kInviteHops = 6;

struct ClusterConfig {
  /// Report collection window after initiation (seconds).
  double collection_window_s = 70.0;
  /// Cancel the cluster when fewer reports than this arrive ("if the
  /// cluster head has not received any reporting within a certain period
  /// of time, it will cancel the temporary cluster").
  std::size_t min_reports = 3;
  /// Decision threshold on C (paper §V-B1: report when C exceeds 0.4
  /// with at least 4 rows of nodes).
  double correlation_threshold = 0.4;
  std::size_t min_rows_for_threshold = 4;
  /// Additional cluster-level gate: required R^2 of the Kelvin sweep
  /// regression (onset time linear in along-track and distance, see
  /// correlation.h). A real pass scores near 1, random alarms near 0.
  /// 0 disables the gate.
  double min_sweep_consistency = 0.4;

  CorrelationConfig correlation;
  /// When set, correlation uses this known travel line (oracle mode for
  /// Table I/II style evaluation); otherwise the head estimates the line
  /// from the reports (deployed mode).
  std::optional<util::Line2> known_travel_line;
};

struct ClusterDecisionResult {
  bool cancelled = false;    ///< not enough reports
  bool intrusion = false;    ///< C and the sweep gate both passed
  CorrelationResult correlation;
  double sweep_consistency = 0.0;  ///< R^2 of the Kelvin sweep regression
  std::optional<util::Line2> travel_line;  ///< used for the correlation
  std::optional<SpeedEstimate> speed;
  std::size_t reports_used = 0;  ///< after per-node dedup
};

class ClusterEvaluator {
 public:
  /// `node_spacing_m` is the deployment's grid spacing D, which the speed
  /// inversion scales by (SidSystem passes NetworkConfig::spacing_m).
  ClusterEvaluator(const ClusterConfig& config, double node_spacing_m);

  /// Evaluates a collected report set (the head's own report included by
  /// the caller).
  ClusterDecisionResult evaluate(
      std::span<const wsn::DetectionReport> reports) const;

 private:
  ClusterConfig config_;
  double node_spacing_m_;
};

}  // namespace sid::core
