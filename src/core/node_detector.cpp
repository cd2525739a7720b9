#include "core/node_detector.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/error.h"

namespace sid::core {

NodeDetector::NodeDetector(const NodeDetectorConfig& config)
    : config_(config),
      filter_(dsp::butterworth_lowpass(kLowpassOrder, kLowpassCutoffHz,
                                       config.sample_rate_hz)),
      adaptive_(config.beta1, config.beta2),
      crossing_window_(kAnomalyWindowSamples),
      crossing_energy_(kAnomalyWindowSamples),
      envelope_window_(kEnvelopeSmoothSamples) {
  util::require(config.threshold_multiplier_m > 0.0,
                "NodeDetector: M must be positive");
  util::require(config.init_samples_u > 1,
                "NodeDetector: init_samples_u must be > 1");
  util::require(config.update_batch_samples > 1,
                "NodeDetector: update_batch_samples must be > 1");
  util::require(config.anomaly_frequency_threshold > 0.0 &&
                    config.anomaly_frequency_threshold <= 1.0,
                "NodeDetector: a_f threshold must be in (0, 1]");
  util::require(config.storm_adaptation_beta > 0.0 &&
                    config.storm_adaptation_beta <= 1.0,
                "NodeDetector: storm_adaptation_beta must be in (0, 1]");
  init_buffer_.reserve(config.init_samples_u);
  normal_batch_.reserve(config.update_batch_samples);
  all_batch_.reserve(config.update_batch_samples);
  warmup_remaining_ = config.warmup_samples;
}

double NodeDetector::rectify(double filtered_counts) const {
  // Remove the 1 g rest level, then fold troughs up: both above- and
  // below-rest excursions carry disturbance information (§IV-B).
  return std::abs(filtered_counts - sense::kCountsPerG);
}

double NodeDetector::adaptive_mean() const {
  util::require_state(armed_, "NodeDetector: not armed yet");
  return adaptive_.mean();
}

double NodeDetector::adaptive_stddev() const {
  util::require_state(armed_, "NodeDetector: not armed yet");
  return adaptive_.stddev();
}

double NodeDetector::anomaly_frequency() const {
  if (crossing_window_.empty()) return 0.0;
  return static_cast<double>(crossings_) /
         static_cast<double>(crossing_window_.size());
}

std::optional<Alarm> NodeDetector::process_sample(double z_counts, double t) {
  // A single corrupt sample would poison the IIR filter state and the
  // adaptive threshold statistics for the rest of the run.
  SID_DCHECK(std::isfinite(z_counts),
             "NodeDetector: non-finite sample at t=", t);
  SID_DCHECK(std::isfinite(t), "NodeDetector: non-finite timestamp");
  if (!primed_) {
    // Kill the causal filter's start-up transient: begin at the DC steady
    // state of the first observed sample (~the 1 g rest level).
    filter_.prime(z_counts);
    primed_ = true;
  }
  const double filtered = filter_.process(z_counts);
  if (warmup_remaining_ > 0) {
    --warmup_remaining_;
    return std::nullopt;
  }
  // Envelope detection: moving average of the rectified signal.
  const double rectified = rectify(filtered);
  if (envelope_window_.full()) {
    envelope_sum_ -= envelope_window_.oldest();
  }
  envelope_window_.push(rectified);
  envelope_sum_ += rectified;
  const double a_i =
      envelope_sum_ / static_cast<double>(envelope_window_.size());

  if (!armed_) {
    // Initialization (Algorithm SID, procedure INITIALIZATION): sample u
    // data, compute m_dt / d_dt (Eq. 4), seed the adaptive statistics.
    init_buffer_.push_back(a_i);
    if (init_buffer_.size() >= config_.init_samples_u) {
      adaptive_.update(util::compute_batch_stats(init_buffer_));
      init_buffer_.clear();
      init_buffer_.shrink_to_fit();
      armed_ = true;
    }
    return std::nullopt;
  }

  // Threshold test (DESIGN.md §4.1 reading of Eq. 6): upward deviation
  // from the adaptive mean, crossed at M adaptive standard deviations.
  // One-sided because the signal is already rectified — a value *below*
  // the mean is a calm instant, not a disturbance.
  const double d_i = a_i - adaptive_.mean();
  const double d_max = config_.threshold_multiplier_m * adaptive_.stddev();
  const bool crossed = d_i > d_max;

  // The running crossing count follows the window: the slot this push
  // evicts leaves it, the new sample joins it.
  if (crossing_window_.full() && crossing_window_.oldest()) --crossings_;
  crossing_window_.push(crossed);
  crossing_energy_.push(crossed ? d_i : 0.0);
  if (crossed) ++crossings_;

  if (crossed) {
    if (first_crossing_time_ < 0.0) first_crossing_time_ = t;
  } else {
    // Normal sample: feeds the adaptive statistics (Eq. 5) in batches.
    normal_batch_.push_back(a_i);
    if (normal_batch_.size() >= config_.update_batch_samples) {
      adaptive_.update(util::compute_batch_stats(normal_batch_));
      normal_batch_.clear();
    }
  }

  // Slow storm adaptation over all samples (see config docs).
  if (config_.storm_adaptation_beta < 1.0) {
    all_batch_.push_back(a_i);
    if (all_batch_.size() >= config_.update_batch_samples) {
      const auto stats = util::compute_batch_stats(all_batch_);
      adaptive_.update_with_beta(stats.mean, stats.stddev,
                                 config_.storm_adaptation_beta);
      all_batch_.clear();
    }
  }

  // Evaluate a_f over the sliding window once it is full.
  if (!crossing_window_.full()) return std::nullopt;

  if (crossings_ == 0) {
    // Run of disturbance over; reset the onset tracker.
    first_crossing_time_ = -1.0;
    return std::nullopt;
  }

  const double a_f = anomaly_frequency();
  if (a_f < config_.anomaly_frequency_threshold) return std::nullopt;
  if (last_alarm_time_ >= 0.0 && t - last_alarm_time_ < config_.refractory_s) {
    return std::nullopt;
  }

  // E_dt (Eq. 8) and the peak over the window's crossings, oldest first;
  // needed only here, when an alarm is emitted.
  double energy_sum = 0.0;
  double energy_peak = 0.0;
  for (std::size_t i = 0; i < crossing_window_.size(); ++i) {
    if (crossing_window_.at(i)) {
      energy_sum += crossing_energy_.at(i);
      energy_peak = std::max(energy_peak, crossing_energy_.at(i));
    }
  }

  Alarm alarm;
  alarm.onset_time_s = first_crossing_time_ >= 0.0 ? first_crossing_time_ : t;
  alarm.trigger_time_s = t;
  alarm.anomaly_frequency = a_f;
  alarm.average_energy = energy_sum / static_cast<double>(crossings_);
  alarm.peak_energy = energy_peak;
  last_alarm_time_ = t;
  return alarm;
}

std::vector<Alarm> NodeDetector::process_trace(
    const sense::SensorTrace& trace) {
  std::vector<Alarm> alarms;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (auto alarm = process_sample(trace.z[i], trace.time_at(i))) {
      alarms.push_back(*alarm);
    }
  }
  return alarms;
}

}  // namespace sid::core
