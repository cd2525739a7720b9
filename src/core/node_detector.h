// Node-level ship detection (§IV-B and the node half of Algorithm SID).
//
// Pipeline per sample (z-axis ADC counts at 50 Hz):
//   1. low-pass at 1 Hz ("filters out the frequency above 1 Hz") with a
//      causal Butterworth cascade — the streaming equivalent of Fig. 8;
//   2. remove the 1 g rest level and rectify ("we minus this value...
//      we have the absolute value of those signal below zero": both
//      crests and troughs carry disturbance information), then smooth the
//      rectified signal with a short moving average (0.5 s). The smoothing
//      turns the rectified carrier into its envelope, so a_f measures the
//      fraction of the window the *train* stays above threshold — without
//      it a_f could never approach the 100 % end of Fig. 11's axis,
//      because |cos| dips to zero twice per carrier cycle;
//   3. adaptive threshold test. The paper's Eq. 6 prints
//      D_i = |a_i - d_T'| and D_max = M * m_T', which is dimensionally
//      inconsistent (deviation from a standard deviation, threshold as a
//      multiple of the mean). The only self-consistent reading — and the
//      one whose false-alarm behaviour reproduces Fig. 11 — is the
//      adaptive z-score: D_i = |a_i - m_T'| crossed when D_i > M * d_T'.
//      (See DESIGN.md §4.1.) M sweeps 1..3 as in the paper;
//   4. anomaly frequency a_f = N_A / N over a sliding window Delta_t
//      (Eq. 7; the train disturbs the buoy for ~2 s, so the window is
//      2 s = 100 samples). N_A is a running count updated on every push,
//      so a sample costs O(1); the window is rescanned only for an alarm's
//      energies;
//   5. when a_f reaches the trigger threshold, raise an alarm carrying
//      the onset time of the first crossing and the average crossing
//      energy E_dt (Eq. 8).
//
// The long-term statistics adapt only on non-anomalous samples: "if D_i
// is normal, a_i will be stored. When the number of sampled data reaches
// a predefined number, the node computes m_T', d_T'" — folded in with
// forgetting factors beta1 = beta2 = 0.99 (Eq. 5).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dsp/filter.h"
#include "sensing/trace.h"
#include "util/ring_buffer.h"
#include "util/stats.h"

namespace sid::core {

// Front-end constants of the detector (§IV-B). The rest level removed
// from z is sense::kCountsPerG.

/// Low-pass front end: "filters out the frequency above 1 Hz".
inline constexpr double kLowpassCutoffHz = 1.0;
inline constexpr std::size_t kLowpassOrder = 4;
/// Moving-average length applied to the rectified signal (envelope
/// detection); 25 samples = 0.5 s at 50 Hz.
inline constexpr std::size_t kEnvelopeSmoothSamples = 25;
/// Anomaly-frequency window Delta_t (samples). 2 s at 50 Hz.
inline constexpr std::size_t kAnomalyWindowSamples = 100;

static_assert(kEnvelopeSmoothSamples > 0 && kAnomalyWindowSamples > 0,
              "detector windows must hold at least one sample");

struct NodeDetectorConfig {
  double sample_rate_hz = 50.0;
  double beta1 = 0.99;              ///< Eq. 5 forgetting factor (mean)
  double beta2 = 0.99;              ///< Eq. 5 forgetting factor (std)
  /// Slow unconditional adaptation: every batch of *all* samples
  /// (crossing included) is folded with this forgetting factor. Without
  /// it the Eq. 5 censored update starves when the sea roughens (every
  /// sample crosses, so nothing is "normal" and the threshold never
  /// rises). A ship train contaminates at most a couple of seconds of a
  /// batch, so the slow path barely moves on real intrusions. Set to 1.0
  /// to disable (paper-literal behaviour).
  double storm_adaptation_beta = 0.95;
  double threshold_multiplier_m = 2.0;  ///< the paper's M in [1, 3]

  /// Samples discarded at start-up while the causal filter settles (the
  /// cascade is also primed to the first sample's DC level).
  std::size_t warmup_samples = 250;  ///< 5 s at 50 Hz
  /// Initialization: number of samples u used to seed m, d (Eq. 4).
  std::size_t init_samples_u = 1500;  ///< 30 s at 50 Hz
  /// Batch size for subsequent adaptive updates.
  std::size_t update_batch_samples = 500;  ///< 10 s

  /// Required a_f for a positive detection (Fig. 11 x-axis), in [0, 1].
  double anomaly_frequency_threshold = 0.6;

  /// Dead time after an alarm before the next can fire.
  double refractory_s = 10.0;
};

/// A positive node-level detection.
struct Alarm {
  double onset_time_s = 0.0;   ///< first threshold crossing of this event
  double trigger_time_s = 0.0; ///< when a_f reached the trigger level
  double anomaly_frequency = 0.0;  ///< a_f at trigger
  double average_energy = 0.0;     ///< E_dt (Eq. 8) at trigger
  /// Largest single-sample crossing deviation in the trigger window. The
  /// front train peaks far above its transverse tail even when their
  /// *average* crossing energies are close, so peak energy is the right
  /// key for picking each node's primary report.
  double peak_energy = 0.0;
};

class NodeDetector {
 public:
  explicit NodeDetector(const NodeDetectorConfig& config);

  /// Feeds one raw z sample (ADC counts) at absolute time `t`. Returns an
  /// alarm when this sample completes a positive detection.
  std::optional<Alarm> process_sample(double z_counts, double t);

  /// Runs a whole trace through the detector, returning every alarm.
  std::vector<Alarm> process_trace(const sense::SensorTrace& trace);

  /// True once the initialization window has been consumed and the
  /// adaptive threshold is armed.
  bool armed() const { return armed_; }

  /// Current adaptive mean m_T' (rectified counts). Requires armed().
  double adaptive_mean() const;
  /// Current adaptive standard deviation d_T'. Requires armed().
  double adaptive_stddev() const;
  /// Current anomaly frequency over the sliding window (a running count,
  /// not a rescan).
  double anomaly_frequency() const;

 private:
  /// Rectified deviation statistic for one filtered sample.
  double rectify(double filtered_counts) const;

  NodeDetectorConfig config_;
  dsp::IirCascade filter_;
  util::ExponentialMeanStd adaptive_;
  util::RingBuffer<bool> crossing_window_;
  util::RingBuffer<double> crossing_energy_;  ///< D_i of crossing samples
  /// Crossings in crossing_window_, kept in step with every push so a_f
  /// costs O(1) per sample.
  std::size_t crossings_ = 0;
  util::RingBuffer<double> envelope_window_;  ///< rectified-sample smoother
  double envelope_sum_ = 0.0;

  std::vector<double> init_buffer_;
  std::vector<double> normal_batch_;
  std::vector<double> all_batch_;  ///< storm-adaptation batch (all samples)
  std::size_t warmup_remaining_ = 0;
  bool primed_ = false;
  bool armed_ = false;

  double first_crossing_time_ = -1.0;  ///< onset of the current run
  double last_alarm_time_ = -1.0;
};

}  // namespace sid::core
