// Sink-level vessel tracking.
//
// §IV-A ends the pipeline at "the final decision will be reported to the
// external user"; the related work the paper builds on (VigilNet, A Line
// in the Sand, HERO) all continue into *tracking*. This layer associates
// the stream of cluster decisions arriving at the sink into vessel
// tracks: each intrusion decision carries an approximate position (the
// centroid of the reporting cluster projected on the estimated travel
// line), a heading and a speed; a constant-velocity track with a simple
// alpha-beta filter absorbs decisions that match its prediction and
// spawns a new track otherwise.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/cluster.h"
#include "util/geometry.h"

namespace sid::core {

/// One observation for the tracker: a positive cluster decision reduced
/// to kinematics.
struct TrackObservation {
  double time_s = 0.0;
  util::Vec2 position;       ///< cluster estimate of the vessel position
  double speed_mps = 0.0;    ///< <= 0 when the cluster had no estimate
  double heading_rad = 0.0;  ///< valid only when speed_mps > 0
};

struct VesselTrack {
  std::size_t id = 0;
  util::Vec2 position;        ///< filtered position at last_update_s
  util::Vec2 velocity;        ///< filtered velocity (m/s)
  double last_update_s = 0.0;
  double first_seen_s = 0.0;
  std::size_t observations = 0;

  /// Predicted position at time t (constant velocity).
  util::Vec2 predict(double t) const {
    return position + velocity * (t - last_update_s);
  }
  double speed_mps() const { return velocity.norm(); }
  bool confirmed() const { return observations >= 2; }
};

// Tracker constants. The sink runs one filter, so no tracker carries its
// own copy.

/// Observations within this distance of a track's prediction associate
/// with it (the boundary included).
inline constexpr double kGateRadiusM = 120.0;
/// Tracks silent for longer than this are retired (exactly this long
/// survives).
inline constexpr double kTrackTimeoutS = 300.0;
/// Alpha-beta filter gains (position / velocity corrections).
inline constexpr double kTrackAlpha = 0.6;
inline constexpr double kTrackBeta = 0.15;

static_assert(kGateRadiusM > 0.0 && kTrackTimeoutS > 0.0 &&
                  kTrackAlpha > 0.0 && kTrackAlpha <= 1.0 &&
                  kTrackBeta >= 0.0 && kTrackBeta <= 1.0,
              "gate and timeout positive, alpha in (0, 1], beta in [0, 1]");

class Tracker {
 public:
  /// Feeds one observation (must be non-decreasing in time). Returns the
  /// id of the track it was associated with (possibly newly created).
  std::size_t observe(const TrackObservation& observation);

  /// Active (non-retired) tracks as of the last observation time.
  const std::vector<VesselTrack>& active_tracks() const { return tracks_; }

  /// Tracks retired so far (for post-run analysis).
  const std::vector<VesselTrack>& retired_tracks() const { return retired_; }

 private:
  void retire_stale(double now);

  std::vector<VesselTrack> tracks_;
  std::vector<VesselTrack> retired_;
  std::size_t next_id_ = 1;
  double last_time_ = -1e300;
};

/// Reduces a positive cluster decision to a tracker observation: the
/// vessel position estimate is the projection of the reports' energy-
/// weighted centroid onto the estimated travel line.
std::optional<TrackObservation> to_observation(
    const ClusterDecisionResult& verdict,
    std::span<const wsn::DetectionReport> reports, double decision_time_s);

}  // namespace sid::core
