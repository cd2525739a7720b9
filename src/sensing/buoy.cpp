#include "sensing/buoy.h"

#include <cmath>

#include "util/error.h"
#include "util/units.h"

namespace sid::sense {

Buoy::Buoy(const BuoyConfig& config) : config_(config), rng_(config.seed) {
  util::require(config.drift_radius_m >= 0.0,
                "Buoy: drift radius must be non-negative");
  util::require(config.drift_time_constant_s > 0.0,
                "Buoy: drift time constant must be positive");
  util::require(config.tilt_stddev_rad >= 0.0,
                "Buoy: tilt stddev must be non-negative");
  util::require(config.tilt_time_constant_s > 0.0,
                "Buoy: tilt time constant must be positive");
}

Buoy::OuStep::OuStep(double dt, double tau, double sigma)
    : decay(std::exp(-dt / tau)),
      noise_sd(sigma * std::sqrt(1.0 - decay * decay)) {}

double Buoy::OuStep::operator()(double x, util::Rng& rng) const {
  return x * decay + rng.normal(0.0, noise_sd);
}

void Buoy::step(double dt) {
  util::require(dt > 0.0, "Buoy::step: dt must be positive");
  if (dt != step_dt_) {
    // Stationary per-axis sd at half the radius keeps the walk inside the
    // mooring circle almost always; the clamp below is the hard guarantee.
    drift_step_ = OuStep(dt, config_.drift_time_constant_s,
                         config_.drift_radius_m / 2.0);
    tilt_step_ =
        OuStep(dt, config_.tilt_time_constant_s, config_.tilt_stddev_rad);
    step_dt_ = dt;
  }
  if (config_.drift_radius_m > 0.0) {
    drift_.x = drift_step_(drift_.x, rng_);
    drift_.y = drift_step_(drift_.y, rng_);
    const double r = drift_.norm();
    if (r > config_.drift_radius_m) {
      drift_ = drift_ * (config_.drift_radius_m / r);
    }
  }
  if (config_.tilt_stddev_rad > 0.0) {
    roll_ = tilt_step_(roll_, rng_);
    pitch_ = tilt_step_(pitch_, rng_);
  }
}

AccelG Buoy::sense(const ocean::Accel3& surface_accel_mps2, double roll_rad,
                   double pitch_rad) {
  // Specific force in the world frame (the accelerometer measures the
  // reaction to gravity plus kinematic acceleration).
  const double fx = surface_accel_mps2.ax;
  const double fy = surface_accel_mps2.ay;
  const double fz = surface_accel_mps2.az + util::kGravity;

  // Rotate world -> sensor with R = Rx(roll) * Ry(pitch); v_s = R^T v_w.
  const double cr = std::cos(roll_rad), sr = std::sin(roll_rad);
  const double cp = std::cos(pitch_rad), sp = std::sin(pitch_rad);
  // v1 = Rx^T * v_w
  const double v1x = fx;
  const double v1y = cr * fy + sr * fz;
  const double v1z = -sr * fy + cr * fz;
  // v2 = Ry^T * v1
  const double v2x = cp * v1x - sp * v1z;
  const double v2y = v1y;
  const double v2z = sp * v1x + cp * v1z;

  return AccelG{.x = util::mps2_to_g(v2x),
                .y = util::mps2_to_g(v2y),
                .z = util::mps2_to_g(v2z)};
}

}  // namespace sid::sense
