// Model of the ST LIS3L02DQ three-axis accelerometer on the iMote2 ITS400
// sensor board (§III-A): +/-2 g range, 12-bit resolution, sampled at
// 50 Hz. Output is in ADC counts: 1 g corresponds to 1024 counts
// (4096 counts across the 4 g span), matching the ~1000-count z mean in
// the paper's Fig. 5.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace sid::sense {

/// Three-axis acceleration in g (x, y in the horizontal plane of the
/// sensor, z up through the board).
struct AccelG {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// Three-axis ADC sample in counts.
struct CountSample {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// ADC counts per g: 12 bits over +/-2 g. This is also the 1 g rest level
/// of the z axis that the detector and SensorTrace::z_centered remove.
inline constexpr double kCountsPerG = 1024.0;
static_assert(kCountsPerG > 0.0, "counts per g must be positive");

struct AccelerometerConfig {
  double range_g = 2.0;           ///< clips at +/- range
  double noise_stddev_counts = 4.0;
  /// Fixed per-axis bias, counts (manufacturing offset); sampled once at
  /// construction from N(0, bias_stddev_counts).
  double bias_stddev_counts = 8.0;
  std::uint64_t seed = 11;
};

class Accelerometer {
 public:
  explicit Accelerometer(const AccelerometerConfig& config = {});

  /// Converts a true acceleration (g) to a quantized, noisy, clipped ADC
  /// reading in counts.
  CountSample sample(const AccelG& true_accel_g);

 private:
  double digitize(double accel_g, double bias_counts);

  AccelerometerConfig config_;
  util::Rng rng_;
  double bias_x_ = 0.0;
  double bias_y_ = 0.0;
  double bias_z_ = 0.0;
};

}  // namespace sid::sense
