#include "core/tracker.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace sid::core {

void Tracker::retire_stale(double now) {
  auto stale = [&](const VesselTrack& track) {
    return now - track.last_update_s > kTrackTimeoutS;
  };
  for (const auto& track : tracks_) {
    if (stale(track)) retired_.push_back(track);
  }
  tracks_.erase(std::remove_if(tracks_.begin(), tracks_.end(), stale),
                tracks_.end());
}

std::size_t Tracker::observe(const TrackObservation& observation) {
  util::require(observation.time_s >= last_time_,
                "Tracker::observe: observations must be time-ordered");
  last_time_ = observation.time_s;
  retire_stale(observation.time_s);

  // Nearest predicted track inside the gate.
  VesselTrack* best = nullptr;
  double best_distance = kGateRadiusM;
  for (auto& track : tracks_) {
    const double d =
        util::distance(track.predict(observation.time_s),
                       observation.position);
    if (d <= best_distance) {
      best_distance = d;
      best = &track;
    }
  }

  if (best == nullptr) {
    VesselTrack track;
    track.id = next_id_++;
    track.position = observation.position;
    if (observation.speed_mps > 0.0) {
      track.velocity = util::Vec2::from_heading(observation.heading_rad) *
                       observation.speed_mps;
    }
    track.first_seen_s = observation.time_s;
    track.last_update_s = observation.time_s;
    track.observations = 1;
    tracks_.push_back(track);
    return track.id;
  }

  // Alpha-beta update against the prediction.
  const double dt = observation.time_s - best->last_update_s;
  const util::Vec2 predicted = best->predict(observation.time_s);
  const util::Vec2 residual = observation.position - predicted;
  best->position = predicted + residual * kTrackAlpha;
  if (dt > 1e-9) {
    best->velocity += residual * (kTrackBeta / dt);
  }
  if (observation.speed_mps > 0.0) {
    // Blend the cluster's own speed/heading estimate into the velocity;
    // an unconfirmed track adopts it outright (its filtered velocity is
    // still the near-zero prior).
    const util::Vec2 measured =
        util::Vec2::from_heading(observation.heading_rad) *
        observation.speed_mps;
    const double w = best->confirmed() ? 0.5 : 1.0;
    best->velocity = best->velocity * (1.0 - w) + measured * w;
  }
  best->last_update_s = observation.time_s;
  ++best->observations;
  return best->id;
}

std::optional<TrackObservation> to_observation(
    const ClusterDecisionResult& verdict,
    std::span<const wsn::DetectionReport> reports, double decision_time_s) {
  if (!verdict.intrusion || reports.empty()) return std::nullopt;

  // Energy-weighted centroid of the reporting nodes.
  util::Vec2 centroid;
  double weight = 0.0;
  for (const auto& r : reports) {
    const double w = std::max(r.average_energy, 1e-9);
    centroid += r.position * w;
    weight += w;
  }
  centroid = centroid / weight;

  TrackObservation obs;
  obs.time_s = decision_time_s;
  obs.position = verdict.travel_line ? verdict.travel_line->project(centroid)
                                     : centroid;
  if (verdict.speed) {
    obs.speed_mps = verdict.speed->speed_mps;
    obs.heading_rad = verdict.speed->heading_rad;
  }
  return obs;
}

}  // namespace sid::core
