#include "sensing/trace.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "dsp/filter.h"
#include "util/check.h"
#include "util/error.h"
#include "util/rng.h"

namespace sid::sense {

bool SensorTrace::wake_active_at(std::size_t i) const {
  const double t = time_at(i);
  for (const auto& [start, end] : wake_intervals) {
    if (t >= start && t <= end) return true;
  }
  return false;
}

std::vector<double> SensorTrace::z_centered() const {
  std::vector<double> out(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) out[i] = z[i] - kCountsPerG;
  return out;
}

SensorTrace generate_trace(const ocean::WaveField& field,
                           std::span<const wake::WakeTrain> trains,
                           const TraceConfig& config) {
  util::require(config.sample_rate_hz > 0.0,
                "generate_trace: sample rate must be positive");
  util::require(config.duration_s > 0.0,
                "generate_trace: duration must be positive");

  util::require(config.slam_noise_g >= 0.0,
                "generate_trace: slam noise must be non-negative");
  const auto n = static_cast<std::size_t>(
      std::llround(config.duration_s * config.sample_rate_hz));
  util::require(n > 0, "generate_trace: zero samples requested");

  Buoy buoy(config.buoy);
  Accelerometer accel(config.accel);
  util::Rng slam_rng(config.buoy.seed * 0x9e3779b97f4a7c15ULL + 0x51A11ULL);
  const double dt = 1.0 / config.sample_rate_hz;

  // Buoy heave response: one causal low-pass per axis, primed to 0 (the
  // wave-driven acceleration has zero mean).
  const bool use_response = config.buoy_response_cutoff_hz > 0.0;
  std::vector<dsp::IirCascade> response;
  if (use_response) {
    util::require(config.buoy_response_cutoff_hz <
                      config.sample_rate_hz / 2.0,
                  "generate_trace: buoy response cutoff above Nyquist");
    for (int axis = 0; axis < 3; ++axis) {
      response.emplace_back(dsp::butterworth_lowpass(
          2, config.buoy_response_cutoff_hz, config.sample_rate_hz));
    }
  }

  SensorTrace trace;
  trace.sample_rate_hz = config.sample_rate_hz;
  trace.start_time_s = config.start_time_s;
  trace.x.reserve(n);
  trace.y.reserve(n);
  trace.z.reserve(n);
  for (const auto& train : trains) {
    trace.wake_intervals.emplace_back(
        train.params().arrival_time_s,
        train.params().arrival_time_s + train.params().duration_s);
  }

  std::optional<CountSample> stuck;  // frozen reading for kStuckAt
  // Blocks of kSampleBlock samples: step the buoy through the block, then
  // evaluate the wave field over it, then run the rest of each sample in
  // order. The buoy, slam and accelerometer draw from separate RNG
  // streams, so no stream's draw order changes. The buffers stay on the
  // stack, block-sized.
  constexpr std::size_t kBlock = ocean::kSampleBlock;
  std::array<util::Vec2, kBlock> position{};
  std::array<double, kBlock> time{};
  std::array<double, kBlock> roll{};
  std::array<double, kBlock> pitch{};
  std::array<ocean::Accel3, kBlock> field_accel{};
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t m = std::min(kBlock, n - begin);
    for (std::size_t j = 0; j < m; ++j) {
      time[j] = config.start_time_s + static_cast<double>(begin + j) * dt;
      buoy.step(dt);
      position[j] = buoy.position();
      roll[j] = buoy.roll_rad();
      pitch[j] = buoy.pitch_rad();
    }
    field.acceleration(std::span(position.data(), m),
                       std::span(time.data(), m),
                       std::span(field_accel.data(), m));
    for (std::size_t j = 0; j < m; ++j) {
      const double t = time[j];
      ocean::Accel3 a = field_accel[j];
      for (const auto& train : trains) {
        const double wz = train.vertical_acceleration(t);
        a.az += wz;
        // Oblique arrival: part of the train's motion shows up
        // horizontally, split between the axes by the wake side.
        const double wh = config.wake_horizontal_fraction * wz;
        a.ax += wh * 0.7 * train.params().side;
        a.ay += wh * 0.3;
      }
      if (use_response) {
        a.ax = response[0].process(a.ax);
        a.ay = response[1].process(a.ay);
        a.az = response[2].process(a.az);
      }
      AccelG g = Buoy::sense(a, roll[j], pitch[j]);
      if (config.slam_noise_g > 0.0) {
        g.x += slam_rng.normal(0.0, 2.0 * config.slam_noise_g);
        g.y += slam_rng.normal(0.0, 2.0 * config.slam_noise_g);
        g.z += slam_rng.normal(0.0, config.slam_noise_g);
      }
      const bool faulty = config.fault.mode != SensorFaultMode::kNone &&
                          t >= config.fault.start_s;
      if (faulty) {
        switch (config.fault.mode) {
          case SensorFaultMode::kGainDrift: {
            // Sensitivity drift scales everything the ADC sees, gravity
            // included, so the z rest level wanders with the gain.
            const double gain = std::max(
                0.0, 1.0 + config.fault.gain_drift_per_s *
                               (t - config.fault.start_s));
            g.x *= gain;
            g.y *= gain;
            g.z *= gain;
            break;
          }
          case SensorFaultMode::kSaturation: {
            const double lim = config.fault.saturation_g;
            g.x = std::clamp(g.x, -lim, lim);
            g.y = std::clamp(g.y, -lim, lim);
            g.z = std::clamp(g.z, -lim, lim);
            break;
          }
          case SensorFaultMode::kStuckAt:
          case SensorFaultMode::kNone:
            break;
        }
      }
      CountSample counts = accel.sample(g);
      if (faulty && config.fault.mode == SensorFaultMode::kStuckAt) {
        if (stuck) {
          counts = *stuck;
        } else {
          stuck = counts;  // freeze at the first faulty reading
        }
      }
      trace.x.push_back(counts.x);
      trace.y.push_back(counts.y);
      trace.z.push_back(counts.z);
    }
  }
  // Synthesis boundary: the trace is what the node detector consumes, so a
  // NaN/Inf sneaking out of the ocean/wake/buoy chain must stop here.
  SID_DCHECK_FINITE(trace.x, "generate_trace x");
  SID_DCHECK_FINITE(trace.y, "generate_trace y");
  SID_DCHECK_FINITE(trace.z, "generate_trace z");
  return trace;
}

SensorTrace generate_ocean_trace(const ocean::WaveField& field,
                                 const TraceConfig& config) {
  return generate_trace(field, {}, config);
}

}  // namespace sid::sense
