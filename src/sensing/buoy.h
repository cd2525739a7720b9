// Buoy dynamics (§I, §III-B): the sensor bottle is fixed on a moored buoy
// that is "not static and tossed by ocean waves", with "about 2 meters
// free drifting radius" (§V-B2). Three effects matter to the detector:
//
//  1. Mooring drift — the buoy's anchor point wanders slowly inside a
//     drift radius (Ornstein–Uhlenbeck walk), perturbing node positions
//     used by the cluster geometry and the speed estimator.
//  2. Tilt wander — the sensor axes rotate slowly and randomly ("the
//     sensor changes direction randomly in the ocean", §III-B), leaking
//     gravity into x/y and motivating the paper's choice to use only the
//     z axis.
//  3. Heave — to first order the buoy rides the surface, so the z axis
//     sees gravity plus the vertical particle acceleration.
#pragma once

#include <cstdint>

#include "ocean/wave_field.h"
#include "sensing/accelerometer.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace sid::sense {

struct BuoyConfig {
  util::Vec2 anchor;                ///< nominal (deployed) position
  double drift_radius_m = 2.0;      ///< paper: ~2 m free drift
  double drift_time_constant_s = 120.0;
  double tilt_stddev_rad = 0.06;    ///< ~3.4 deg RMS roll/pitch wander
  double tilt_time_constant_s = 8.0;
  std::uint64_t seed = 21;
};

class Buoy {
 public:
  explicit Buoy(const BuoyConfig& config);

  /// Advances the internal drift/tilt state by dt seconds.
  void step(double dt);

  /// Current (drifted) position on the surface.
  util::Vec2 position() const { return config_.anchor + drift_; }

  util::Vec2 anchor() const { return config_.anchor; }
  double roll_rad() const { return roll_; }
  double pitch_rad() const { return pitch_; }

  /// Maps a true surface acceleration (m/s^2, z excluding gravity) into
  /// sensor-frame axes in g, including gravity and the leakage of a buoy
  /// tilted by `roll_rad` and `pitch_rad` (a sample's roll_rad() and
  /// pitch_rad()).
  static AccelG sense(const ocean::Accel3& surface_accel_mps2,
                      double roll_rad, double pitch_rad);

  const BuoyConfig& config() const { return config_; }

 private:
  /// One exact Ornstein–Uhlenbeck step of a fixed dt, for stationary
  /// stddev sigma and time constant tau: x' = x * decay + N(0, noise_sd).
  struct OuStep {
    double decay = 1.0;
    double noise_sd = 0.0;
    OuStep() = default;
    OuStep(double dt, double tau, double sigma);
    double operator()(double x, util::Rng& rng) const;
  };

  BuoyConfig config_;
  util::Rng rng_;
  util::Vec2 drift_;
  double roll_ = 0.0;
  double pitch_ = 0.0;
  /// The dt the steps below were built for (0 before the first step):
  /// traces step at one fixed dt, so the exp/sqrt run once per buoy.
  double step_dt_ = 0.0;
  OuStep drift_step_;
  OuStep tilt_step_;
};

}  // namespace sid::sense
