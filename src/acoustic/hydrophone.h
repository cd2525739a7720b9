// Hydrophone detector: converts the sonar-equation SNR into detection
// events with a Gaussian ROC (the standard passive-sonar detection index
// model): P(detect in one look) = Phi((SNR - DT) / sigma), evaluated once
// per integration period while the vessel is in range. False alarms fire
// at a configurable Poisson rate, reproducing the clutter a real shallow
// harbor hydrophone hears (snapping shrimp, chains, rain).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "acoustic/propagation.h"
#include "shipwave/ship.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace sid::acoustic {

/// Detection threshold DT (dB): SNR at which a single look detects with
/// probability 0.5.
inline constexpr double kDetectionThresholdDb = 6.0;
/// ROC steepness: sigma of the Gaussian detection index, dB.
inline constexpr double kRocSigmaDb = 4.0;

static_assert(kRocSigmaDb > 0.0, "the ROC sigma must be positive");

struct HydrophoneConfig {
  SonarEquation sonar;
  /// One detection "look" per this period (energy integration window).
  double integration_period_s = 2.0;
  /// Clutter false alarms, events per hour.
  double false_alarm_rate_per_hour = 6.0;
  std::uint64_t seed = 71;
};

/// One acoustic detection event.
struct AcousticContact {
  double time_s = 0.0;
  double snr_db = 0.0;   ///< SNR at detection (clutter: snr of the spike)
  bool clutter = false;  ///< true for a false-alarm event
};

class Hydrophone {
 public:
  Hydrophone(util::Vec2 position, const HydrophoneConfig& config);

  /// Runs the detector over [t0, t0+duration) against the given ship
  /// tracks (empty span = clutter only). Returns every contact.
  std::vector<AcousticContact> run(
      std::span<const wake::ShipTrack> ships, double t0, double duration_s,
      ocean::SeaState state);

  util::Vec2 position() const { return position_; }

 private:
  util::Vec2 position_;
  HydrophoneConfig config_;
  util::Rng rng_;
};

}  // namespace sid::acoustic
