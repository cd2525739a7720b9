#include "acoustic/hydrophone.h"

#include <cmath>

#include "util/error.h"

namespace sid::acoustic {

namespace {

/// Standard normal CDF.
double phi(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

}  // namespace

Hydrophone::Hydrophone(util::Vec2 position, const HydrophoneConfig& config)
    : position_(position), config_(config), rng_(config.seed) {
  util::require(config.integration_period_s > 0.0,
                "Hydrophone: integration period must be positive");
  util::require(config.false_alarm_rate_per_hour >= 0.0,
                "Hydrophone: false alarm rate must be non-negative");
}

std::vector<AcousticContact> Hydrophone::run(
    std::span<const wake::ShipTrack> ships, double t0, double duration_s,
    ocean::SeaState state) {
  util::require(duration_s > 0.0, "Hydrophone::run: bad duration");

  std::vector<AcousticContact> contacts;
  const double dt = config_.integration_period_s;
  const double pfa_per_look =
      config_.false_alarm_rate_per_hour * dt / 3600.0;

  for (double t = t0; t < t0 + duration_s; t += dt) {
    // Strongest vessel SNR this look.
    double best_snr = -1e9;
    for (const auto& ship : ships) {
      if (t < ship.start_time_s()) continue;
      const double range = util::distance(ship.position(t), position_);
      best_snr = std::max(
          best_snr,
          config_.sonar.snr_db(ship.speed_mps(), range, state));
    }
    if (!ships.empty() && best_snr > -1e8) {
      const double p = phi((best_snr - kDetectionThresholdDb) / kRocSigmaDb);
      if (rng_.bernoulli(p)) {
        contacts.push_back(AcousticContact{t, best_snr, false});
        continue;  // a real contact supersedes clutter this look
      }
    }
    if (pfa_per_look > 0.0 && rng_.bernoulli(pfa_per_look)) {
      contacts.push_back(AcousticContact{
          t, kDetectionThresholdDb + rng_.exponential(0.5), true});
    }
  }
  return contacts;
}

}  // namespace sid::acoustic
