#include "sensing/accelerometer.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace sid::sense {

Accelerometer::Accelerometer(const AccelerometerConfig& config)
    : config_(config), rng_(config.seed) {
  util::require(config.range_g > 0.0, "Accelerometer: range must be positive");
  util::require(config.noise_stddev_counts >= 0.0,
                "Accelerometer: noise stddev must be non-negative");
  util::require(config.bias_stddev_counts >= 0.0,
                "Accelerometer: bias stddev must be non-negative");
  bias_x_ = rng_.normal(0.0, config.bias_stddev_counts);
  bias_y_ = rng_.normal(0.0, config.bias_stddev_counts);
  bias_z_ = rng_.normal(0.0, config.bias_stddev_counts);
}

double Accelerometer::digitize(double accel_g, double bias_counts) {
  const double clipped =
      std::clamp(accel_g, -config_.range_g, config_.range_g);
  double counts = clipped * kCountsPerG + bias_counts;
  if (config_.noise_stddev_counts > 0.0) {
    counts += rng_.normal(0.0, config_.noise_stddev_counts);
  }
  // 12-bit quantization: integer counts, clipped to the ADC span.
  counts = std::round(counts);
  const double full_scale = config_.range_g * kCountsPerG;
  return std::clamp(counts, -full_scale, full_scale - 1.0);
}

CountSample Accelerometer::sample(const AccelG& true_accel_g) {
  CountSample out;
  out.x = digitize(true_accel_g.x, bias_x_);
  out.y = digitize(true_accel_g.y, bias_y_);
  out.z = digitize(true_accel_g.z, bias_z_);
  return out;
}

}  // namespace sid::sense
