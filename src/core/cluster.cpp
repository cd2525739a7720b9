#include "core/cluster.h"

#include <cmath>
#include <set>

#include "util/check.h"
#include "util/error.h"

namespace sid::core {

ClusterEvaluator::ClusterEvaluator(const ClusterConfig& config,
                                   double node_spacing_m)
    : config_(config), node_spacing_m_(node_spacing_m) {
  util::require(config.collection_window_s > 0.0,
                "ClusterEvaluator: collection window must be positive");
  util::require(config.correlation_threshold >= 0.0,
                "ClusterEvaluator: threshold must be non-negative");
  util::require(node_spacing_m > 0.0,
                "ClusterEvaluator: spacing must be positive");
}

ClusterDecisionResult ClusterEvaluator::evaluate(
    std::span<const wsn::DetectionReport> raw_reports) const {
  // Fusion boundary: reports arrive over the (simulated) wire from every
  // node pipeline; corrupt energies or timestamps must not reach the
  // correlation/speed math.
  for (const auto& r : raw_reports) {
    SID_DCHECK(std::isfinite(r.onset_local_time_s) &&
                   std::isfinite(r.average_energy) &&
                   std::isfinite(r.peak_energy) &&
                   std::isfinite(r.anomaly_frequency),
               "ClusterEvaluator: non-finite field in report from node ",
               r.reporter);
  }
  ClusterDecisionResult result;

  // One observation per node: the wire can deliver several alarms per
  // node per pass (front train, transverse tail, false alarms).
  const auto reports = dedup_strongest_per_node(raw_reports);
  result.reports_used = reports.size();

  if (reports.size() < config_.min_reports) {
    result.cancelled = true;
    return result;
  }

  // Travel line: oracle if configured, otherwise estimated from the
  // strongest report per row.
  if (config_.known_travel_line) {
    result.travel_line = *config_.known_travel_line;
  } else {
    result.travel_line = estimate_travel_line(reports);
  }
  if (!result.travel_line) {
    // Cannot orient the reports (single row): fall back to cancellation —
    // a one-row cluster cannot satisfy the >= 4 row requirement anyway.
    result.cancelled = true;
    return result;
  }

  result.correlation =
      compute_correlation(reports, *result.travel_line, config_.correlation);
  result.sweep_consistency =
      sweep_consistency(reports, *result.travel_line);

  std::set<std::int32_t> rows;
  for (const auto& r : reports) rows.insert(r.grid_row);
  const bool enough_rows = rows.size() >= config_.min_rows_for_threshold;

  const bool sweep_ok =
      config_.min_sweep_consistency <= 0.0 ||
      result.sweep_consistency >= config_.min_sweep_consistency;
  result.intrusion = enough_rows && sweep_ok &&
                     result.correlation.c > config_.correlation_threshold;

  if (result.intrusion) {
    if (const auto quad = select_speed_quad(reports)) {
      result.speed = estimate_speed_either_pairing(*quad, node_spacing_m_);
    }
  }
  return result;
}

}  // namespace sid::core
