// Composite trace generation: ocean field + ship-wake trains -> buoy ->
// accelerometer -> 50 Hz, 12-bit count stream. This is the synthetic
// replacement for the paper's sea-trial recordings (see DESIGN.md §1) and
// the single entry point every evaluation harness uses to obtain sensor
// data.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ocean/wave_field.h"
#include "sensing/accelerometer.h"
#include "sensing/buoy.h"
#include "shipwave/wave_train.h"

namespace sid::sense {

/// A recorded three-axis trace in ADC counts, fixed sample rate.
struct SensorTrace {
  double sample_rate_hz = 50.0;
  double start_time_s = 0.0;
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> z;
  /// Ground-truth intervals [start, end] during which a wake train was
  /// active at this buoy (for evaluation only — the detector never sees
  /// them).
  std::vector<std::pair<double, double>> wake_intervals;

  std::size_t size() const { return z.size(); }
  double duration_s() const {
    return static_cast<double>(size()) / sample_rate_hz;
  }
  double time_at(std::size_t i) const {
    return start_time_s + static_cast<double>(i) / sample_rate_hz;
  }
  /// True when sample i falls inside any ground-truth wake interval.
  bool wake_active_at(std::size_t i) const;

  /// z with the 1 g rest level (kCountsPerG) removed: the signal of
  /// Fig. 8 before filtering.
  std::vector<double> z_centered() const;
};

/// Buoy sensor defect applied while synthesizing a trace. Mirrors
/// wsn::SensorFaultSpec (the sensing library stays independent of the
/// wsn library; core/scenario translates between the two).
enum class SensorFaultMode {
  kNone,
  kStuckAt,     ///< counts freeze at the first faulty reading
  kGainDrift,   ///< sensitivity drifts multiplicatively over time
  kSaturation,  ///< dynamic range collapses; acceleration clips hard
};

struct SensorFaultConfig {
  SensorFaultMode mode = SensorFaultMode::kNone;
  double start_s = 0.0;  ///< fault onset (absolute trace time)
  /// kGainDrift: fractional gain change per second after onset.
  double gain_drift_per_s = 0.0;
  /// kSaturation: readings clip to +/- this many g (a value below 1 g
  /// pegs the gravity-biased z axis).
  double saturation_g = 0.3;
};

struct TraceConfig {
  double sample_rate_hz = 50.0;
  double start_time_s = 0.0;
  double duration_s = 60.0;
  BuoyConfig buoy;
  AccelerometerConfig accel;
  /// Fraction of the wake train's vertical acceleration leaking into the
  /// horizontal axes (obliquely arriving wave slosh).
  double wake_horizontal_fraction = 0.4;
  /// Buoy heave response: the hull cannot follow waves much shorter than
  /// itself, so wave-driven acceleration is low-passed (2nd-order
  /// Butterworth) at this cutoff before reaching the sensor. 0 disables.
  /// This is what gives the measured acceleration spectrum its single
  /// swell peak (the paper's Fig. 6a) despite the broadband chop.
  double buoy_response_cutoff_hz = 1.1;
  /// Broadband "slam" acceleration from chop slapping the hull and
  /// mooring jerks, g RMS on the z axis (horizontal axes get 1.5x).
  /// Produces the fast hundreds-of-counts raw fluctuation of Fig. 5;
  /// removed by the node detector's 1 Hz filter.
  double slam_noise_g = 0.06;
  /// Optional sensor defect (stuck-at / gain drift / saturation).
  SensorFaultConfig fault;
};

/// Synthesizes the trace a buoy at `config.buoy.anchor` records while the
/// ocean `field` and zero or more wake `trains` act on it.
SensorTrace generate_trace(const ocean::WaveField& field,
                           std::span<const wake::WakeTrain> trains,
                           const TraceConfig& config);

/// Convenience: ocean-only trace (no ship).
SensorTrace generate_ocean_trace(const ocean::WaveField& field,
                                 const TraceConfig& config);

}  // namespace sid::sense
