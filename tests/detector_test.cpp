// Tests for the node-level detector (§IV-B): adaptive threshold, anomaly
// frequency, onset timestamps and environment tracking.
//
// Backgrounds are swell-like (a slow sinusoid plus sensor noise) so the
// adaptive statistics take realistic values; pure white noise makes the
// envelope detector degenerate-sensitive and tests nothing meaningful.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "core/node_detector.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/error.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace sid::core {
namespace {

constexpr double kFs = 50.0;
constexpr double kRest = 1024.0;

/// Builds a z-count stream: rest level + swell + noise, with optional
/// wake-like bursts.
struct StreamBuilder {
  util::Rng rng{42};
  double noise_counts = 8.0;
  double swell_counts = 30.0;
  double swell_freq_hz = 0.29;
  double swell_phase = 0.4;
  std::vector<double> samples;

  double elapsed_s() const {
    return static_cast<double>(samples.size()) / kFs;
  }

  void add_sea(double seconds) {
    const auto n = static_cast<std::size_t>(seconds * kFs);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = elapsed_s();
      samples.push_back(
          kRest +
          swell_counts *
              std::sin(2.0 * std::numbers::pi * swell_freq_hz * t +
                       swell_phase) +
          rng.normal(0.0, noise_counts));
    }
  }

  /// Burst on top of the sea: modulated oscillation at `freq`.
  void add_burst(double seconds, double amplitude, double freq = 0.6) {
    const auto n = static_cast<std::size_t>(seconds * kFs);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = elapsed_s();
      const double u = static_cast<double>(i) / kFs;
      const double env =
          0.5 * (1.0 - std::cos(2.0 * std::numbers::pi * u / seconds));
      samples.push_back(
          kRest +
          swell_counts *
              std::sin(2.0 * std::numbers::pi * swell_freq_hz * t +
                       swell_phase) +
          amplitude * env * std::sin(2.0 * std::numbers::pi * freq * u) +
          rng.normal(0.0, noise_counts));
    }
  }
};

NodeDetectorConfig quick_config() {
  NodeDetectorConfig cfg;
  cfg.warmup_samples = 100;
  cfg.init_samples_u = 500;  // 10 s init for fast tests
  cfg.update_batch_samples = 250;
  cfg.anomaly_frequency_threshold = 0.6;
  cfg.threshold_multiplier_m = 2.5;
  return cfg;
}

std::vector<Alarm> run_detector(NodeDetector& det,
                                const std::vector<double>& samples) {
  std::vector<Alarm> alarms;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (auto alarm =
            det.process_sample(samples[i], static_cast<double>(i) / kFs)) {
      alarms.push_back(*alarm);
    }
  }
  return alarms;
}

TEST(NodeDetectorTest, ArmsAfterInitWindow) {
  NodeDetector det(quick_config());
  StreamBuilder sb;
  sb.add_sea(20.0);
  std::size_t armed_at = 0;
  for (std::size_t i = 0; i < sb.samples.size(); ++i) {
    det.process_sample(sb.samples[i], static_cast<double>(i) / kFs);
    if (det.armed() && armed_at == 0) armed_at = i;
  }
  EXPECT_TRUE(det.armed());
  // warmup 100 + init 500.
  EXPECT_NEAR(static_cast<double>(armed_at), 600.0, 2.0);
}

TEST(NodeDetectorTest, NoAlarmOnSteadySea) {
  NodeDetector det(quick_config());
  StreamBuilder sb;
  sb.add_sea(180.0);
  EXPECT_EQ(run_detector(det, sb.samples).size(), 0u);
}

TEST(NodeDetectorTest, DetectsStrongBurstWithOnsetTime) {
  NodeDetector det(quick_config());
  StreamBuilder sb;
  sb.add_sea(30.0);
  const double burst_start = 30.0;
  sb.add_burst(3.0, 400.0);
  sb.add_sea(20.0);

  const auto alarms = run_detector(det, sb.samples);
  ASSERT_GE(alarms.size(), 1u);
  EXPECT_NEAR(alarms[0].onset_time_s, burst_start, 2.0);
  EXPECT_GE(alarms[0].anomaly_frequency, 0.6);
  EXPECT_GT(alarms[0].average_energy, 0.0);
  EXPECT_GE(alarms[0].trigger_time_s, alarms[0].onset_time_s);
}

TEST(NodeDetectorTest, WeakBurstBelowSwellIgnored) {
  NodeDetector det(quick_config());
  StreamBuilder sb;
  sb.add_sea(30.0);
  sb.add_burst(3.0, 15.0);  // half the swell amplitude: invisible
  sb.add_sea(20.0);
  EXPECT_EQ(run_detector(det, sb.samples).size(), 0u);
}

TEST(NodeDetectorTest, RefractoryBlocksImmediateRetrigger) {
  auto cfg = quick_config();
  cfg.refractory_s = 30.0;
  NodeDetector det(cfg);
  StreamBuilder sb;
  sb.add_sea(30.0);
  sb.add_burst(3.0, 400.0);
  sb.add_sea(2.0);
  sb.add_burst(3.0, 400.0);  // within refractory
  sb.add_sea(10.0);
  EXPECT_EQ(run_detector(det, sb.samples).size(), 1u);
}

TEST(NodeDetectorTest, SeparatedBurstsBothDetected) {
  auto cfg = quick_config();
  cfg.refractory_s = 5.0;
  NodeDetector det(cfg);
  StreamBuilder sb;
  sb.add_sea(30.0);
  sb.add_burst(3.0, 400.0);
  sb.add_sea(30.0);
  sb.add_burst(3.0, 400.0);
  sb.add_sea(10.0);
  const auto alarms = run_detector(det, sb.samples);
  ASSERT_GE(alarms.size(), 2u);
  EXPECT_NEAR(alarms[0].onset_time_s, 30.0, 2.5);
  EXPECT_NEAR(alarms[1].onset_time_s, 63.0, 2.5);
}

TEST(NodeDetectorTest, HigherMNeedsStrongerBurst) {
  auto detect_with_m = [](double m, double amplitude) {
    auto cfg = quick_config();
    cfg.threshold_multiplier_m = m;
    NodeDetector det(cfg);
    StreamBuilder sb;
    sb.add_sea(30.0);
    sb.add_burst(3.0, amplitude);
    sb.add_sea(10.0);
    return !run_detector(det, sb.samples).empty();
  };
  // A mid-strength burst: visible at low M, invisible at high M.
  bool found_separation = false;
  for (double amp : {50.0, 70.0, 90.0, 120.0, 160.0}) {
    if (detect_with_m(1.0, amp) && !detect_with_m(5.0, amp)) {
      found_separation = true;
      break;
    }
  }
  EXPECT_TRUE(found_separation);
}

TEST(NodeDetectorTest, StormAdaptationFollowsRisingSea) {
  // After the sea roughens 4x, the slow adaptation path must raise the
  // long-term statistics even though most samples cross the old
  // threshold (the Eq. 5 censored path alone would starve).
  auto cfg = quick_config();
  cfg.storm_adaptation_beta = 0.9;
  NodeDetector det(cfg);
  StreamBuilder calm;
  calm.add_sea(30.0);
  run_detector(det, calm.samples);
  const double before_mean = det.adaptive_mean();

  StreamBuilder rough;
  rough.rng.reseed(99);
  rough.swell_counts = 120.0;
  rough.add_sea(180.0);
  for (std::size_t i = 0; i < rough.samples.size(); ++i) {
    det.process_sample(rough.samples[i],
                       30.0 + static_cast<double>(i) / kFs);
  }
  EXPECT_GT(det.adaptive_mean(), before_mean * 2.0);
}

TEST(NodeDetectorTest, LiteralPaperModeStarvesInStorm) {
  // Documents the behaviour the storm path exists to fix: with
  // storm_adaptation_beta = 1.0 (paper-literal censored updates), the
  // adaptive mean barely moves when the sea roughens.
  auto cfg = quick_config();
  cfg.storm_adaptation_beta = 1.0;
  NodeDetector det(cfg);
  StreamBuilder calm;
  calm.add_sea(30.0);
  run_detector(det, calm.samples);
  const double before_mean = det.adaptive_mean();

  StreamBuilder rough;
  rough.rng.reseed(99);
  rough.swell_counts = 120.0;
  rough.add_sea(180.0);
  for (std::size_t i = 0; i < rough.samples.size(); ++i) {
    det.process_sample(rough.samples[i],
                       30.0 + static_cast<double>(i) / kFs);
  }
  EXPECT_LT(det.adaptive_mean(), before_mean * 2.0);
}

TEST(NodeDetectorTest, AnomalyFrequencyReflectsWindowContent) {
  NodeDetector det(quick_config());
  StreamBuilder sb;
  sb.add_sea(30.0);
  for (std::size_t i = 0; i < sb.samples.size(); ++i) {
    det.process_sample(sb.samples[i], static_cast<double>(i) / kFs);
  }
  EXPECT_LT(det.anomaly_frequency(), 0.3);  // quiet sea

  StreamBuilder burst;
  burst.add_burst(4.0, 500.0);
  double t0 = 30.0;
  double max_af = 0.0;
  for (std::size_t i = 0; i < burst.samples.size(); ++i) {
    det.process_sample(burst.samples[i], t0 + static_cast<double>(i) / kFs);
    max_af = std::max(max_af, det.anomaly_frequency());
  }
  EXPECT_GT(max_af, 0.7);
}

TEST(NodeDetectorTest, ProcessTraceEquivalentToSampleLoop) {
  StreamBuilder sb;
  sb.add_sea(30.0);
  sb.add_burst(3.0, 400.0);
  sb.add_sea(10.0);
  sense::SensorTrace trace;
  trace.sample_rate_hz = kFs;
  trace.z = sb.samples;
  trace.x.assign(sb.samples.size(), 0.0);
  trace.y.assign(sb.samples.size(), 0.0);

  NodeDetector a(quick_config());
  const auto alarms_trace = a.process_trace(trace);

  NodeDetector b(quick_config());
  const auto alarms_loop = run_detector(b, sb.samples);
  ASSERT_EQ(alarms_trace.size(), alarms_loop.size());
  for (std::size_t i = 0; i < alarms_trace.size(); ++i) {
    EXPECT_EQ(alarms_trace[i].onset_time_s, alarms_loop[i].onset_time_s);
  }
}

TEST(NodeDetectorTest, StateAccessorsThrowBeforeArming) {
  NodeDetector det(quick_config());
  EXPECT_THROW(det.adaptive_mean(), util::StateError);
  EXPECT_THROW(det.adaptive_stddev(), util::StateError);
}

TEST(NodeDetectorTest, RejectsBadConfig) {
  NodeDetectorConfig cfg;
  cfg.threshold_multiplier_m = 0.0;
  EXPECT_THROW(NodeDetector{cfg}, util::InvalidArgument);
  cfg = {};
  cfg.anomaly_frequency_threshold = 1.5;
  EXPECT_THROW(NodeDetector{cfg}, util::InvalidArgument);
  cfg = {};
  cfg.init_samples_u = 1;
  EXPECT_THROW(NodeDetector{cfg}, util::InvalidArgument);
  cfg = {};
  cfg.storm_adaptation_beta = 0.0;
  EXPECT_THROW(NodeDetector{cfg}, util::InvalidArgument);
}

// ------------------------------------------ rescanning reference

// NodeDetector::process_sample as it was before the running crossing
// count: every sample rescans the whole anomaly window for the count, the
// energy sum and the peak.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(const NodeDetectorConfig& config)
      : config_(config),
        filter_(dsp::butterworth_lowpass(kLowpassOrder, kLowpassCutoffHz,
                                         config.sample_rate_hz)),
        adaptive_(config.beta1, config.beta2),
        crossing_window_(kAnomalyWindowSamples),
        crossing_energy_(kAnomalyWindowSamples),
        envelope_window_(kEnvelopeSmoothSamples),
        warmup_remaining_(config.warmup_samples) {}

  double anomaly_frequency() const {
    if (crossing_window_.empty()) return 0.0;
    std::size_t crossings = 0;
    for (std::size_t i = 0; i < crossing_window_.size(); ++i) {
      if (crossing_window_.at(i)) ++crossings;
    }
    return static_cast<double>(crossings) /
           static_cast<double>(crossing_window_.size());
  }

  std::optional<Alarm> process_sample(double z_counts, double t) {
    if (!primed_) {
      filter_.prime(z_counts);
      primed_ = true;
    }
    const double filtered = filter_.process(z_counts);
    if (warmup_remaining_ > 0) {
      --warmup_remaining_;
      return std::nullopt;
    }
    const double rectified = std::abs(filtered - sense::kCountsPerG);
    if (envelope_window_.full()) {
      envelope_sum_ -= envelope_window_.oldest();
    }
    envelope_window_.push(rectified);
    envelope_sum_ += rectified;
    const double a_i =
        envelope_sum_ / static_cast<double>(envelope_window_.size());

    if (!armed_) {
      init_buffer_.push_back(a_i);
      if (init_buffer_.size() >= config_.init_samples_u) {
        adaptive_.update(util::compute_batch_stats(init_buffer_));
        init_buffer_.clear();
        armed_ = true;
      }
      return std::nullopt;
    }

    const double d_i = a_i - adaptive_.mean();
    const double d_max = config_.threshold_multiplier_m * adaptive_.stddev();
    const bool crossed = d_i > d_max;

    crossing_window_.push(crossed);
    crossing_energy_.push(crossed ? d_i : 0.0);

    if (crossed) {
      if (first_crossing_time_ < 0.0) first_crossing_time_ = t;
    } else {
      normal_batch_.push_back(a_i);
      if (normal_batch_.size() >= config_.update_batch_samples) {
        adaptive_.update(util::compute_batch_stats(normal_batch_));
        normal_batch_.clear();
      }
    }

    if (config_.storm_adaptation_beta < 1.0) {
      all_batch_.push_back(a_i);
      if (all_batch_.size() >= config_.update_batch_samples) {
        const auto stats = util::compute_batch_stats(all_batch_);
        adaptive_.update_with_beta(stats.mean, stats.stddev,
                                   config_.storm_adaptation_beta);
        all_batch_.clear();
      }
    }

    if (!crossing_window_.full()) return std::nullopt;

    std::size_t crossings = 0;
    double energy_sum = 0.0;
    double energy_peak = 0.0;
    for (std::size_t i = 0; i < crossing_window_.size(); ++i) {
      if (crossing_window_.at(i)) {
        ++crossings;
        energy_sum += crossing_energy_.at(i);
        energy_peak = std::max(energy_peak, crossing_energy_.at(i));
      }
    }
    const double a_f = static_cast<double>(crossings) /
                       static_cast<double>(crossing_window_.size());

    if (crossings == 0) {
      first_crossing_time_ = -1.0;
      return std::nullopt;
    }

    if (a_f < config_.anomaly_frequency_threshold) return std::nullopt;
    if (last_alarm_time_ >= 0.0 &&
        t - last_alarm_time_ < config_.refractory_s) {
      return std::nullopt;
    }

    Alarm alarm;
    alarm.onset_time_s =
        first_crossing_time_ >= 0.0 ? first_crossing_time_ : t;
    alarm.trigger_time_s = t;
    alarm.anomaly_frequency = a_f;
    alarm.average_energy = energy_sum / static_cast<double>(crossings);
    alarm.peak_energy = energy_peak;
    last_alarm_time_ = t;
    return alarm;
  }

 private:
  NodeDetectorConfig config_;
  dsp::IirCascade filter_;
  util::ExponentialMeanStd adaptive_;
  util::RingBuffer<bool> crossing_window_;
  util::RingBuffer<double> crossing_energy_;
  util::RingBuffer<double> envelope_window_;
  double envelope_sum_ = 0.0;
  std::vector<double> init_buffer_;
  std::vector<double> normal_batch_;
  std::vector<double> all_batch_;
  std::size_t warmup_remaining_ = 0;
  bool primed_ = false;
  bool armed_ = false;
  double first_crossing_time_ = -1.0;
  double last_alarm_time_ = -1.0;
};

/// Feeds `samples` to the detector and the reference side by side and
/// requires the same alarms, every field equal, and the same a_f after
/// every sample. Returns the number of alarms.
std::size_t expect_matches_reference(const NodeDetectorConfig& cfg,
                                     const std::vector<double>& samples) {
  NodeDetector det(cfg);
  ReferenceDetector ref(cfg);
  std::size_t alarms = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = static_cast<double>(i) / cfg.sample_rate_hz;
    const auto got = det.process_sample(samples[i], t);
    const auto want = ref.process_sample(samples[i], t);
    EXPECT_EQ(got.has_value(), want.has_value()) << "sample " << i;
    if (got && want) {
      EXPECT_EQ(got->onset_time_s, want->onset_time_s) << "sample " << i;
      EXPECT_EQ(got->trigger_time_s, want->trigger_time_s) << "sample " << i;
      EXPECT_EQ(got->anomaly_frequency, want->anomaly_frequency)
          << "sample " << i;
      EXPECT_EQ(got->average_energy, want->average_energy) << "sample " << i;
      EXPECT_EQ(got->peak_energy, want->peak_energy) << "sample " << i;
      ++alarms;
    }
    EXPECT_EQ(det.anomaly_frequency(), ref.anomaly_frequency())
        << "sample " << i;
    if (::testing::Test::HasFailure()) break;
  }
  return alarms;
}

TEST(NodeDetectorReferenceTest, RealTracesMatchRescanningReference) {
  // Synthesized buoy traces in three sea states, with a ship crossing
  // near the buoy, at the default configuration and at M = 1 (many
  // crossings and alarms).
  wake::ShipTrackConfig ship;
  ship.start = {0.0, -300.0};
  ship.heading_rad = std::numbers::pi / 2;
  ship.speed_mps = util::knots_to_mps(12.0);
  const wake::ShipTrack track(ship);
  const util::Vec2 anchor{25.0, 0.0};
  const auto train = wake::make_wake_train(track, anchor);
  ASSERT_TRUE(train.has_value());
  const std::vector<wake::WakeTrain> trains{*train};
  std::size_t alarms = 0;
  std::uint64_t seed = 3;
  for (const auto sea : {ocean::SeaState::kCalm, ocean::SeaState::kModerate,
                         ocean::SeaState::kRough}) {
    const auto spectrum = ocean::make_sea_spectrum(sea);
    ocean::WaveFieldConfig field_cfg;
    field_cfg.seed = seed;
    const ocean::WaveField field(*spectrum, field_cfg);
    sense::TraceConfig trace_cfg;
    trace_cfg.duration_s = 240.0;
    trace_cfg.buoy.anchor = anchor;
    trace_cfg.buoy.seed = seed * 7919 + 1;
    trace_cfg.accel.seed = seed * 104729;
    const auto trace = sense::generate_trace(field, trains, trace_cfg);
    for (const double m : {1.0, 2.0}) {
      NodeDetectorConfig cfg;
      cfg.threshold_multiplier_m = m;
      SCOPED_TRACE(testing::Message() << "sea " << static_cast<int>(sea)
                                      << ", M " << m);
      alarms += expect_matches_reference(cfg, trace.z);
    }
    ++seed;
  }
  EXPECT_GT(alarms, 3u);
}

TEST(NodeDetectorReferenceTest,
     RandomCrossingPatternsMatchRescanningReference) {
  // Bursts of random length and strength on a swell, under random M, a_f
  // thresholds and refractory times, so the window fills and drains in
  // irregular patterns and alarms fire often.
  util::Rng rng(2024);
  std::size_t alarms = 0;
  for (int round = 0; round < 12; ++round) {
    StreamBuilder sb;
    sb.rng = util::Rng(static_cast<std::uint64_t>(round) + 100);
    sb.add_sea(15.0);
    for (int k = 0; k < 30; ++k) {
      sb.add_burst(rng.uniform(0.1, 4.0), rng.uniform(0.0, 500.0),
                   rng.uniform(0.3, 1.2));
      sb.add_sea(rng.uniform(0.0, 3.0));
    }
    auto cfg = quick_config();
    cfg.threshold_multiplier_m = rng.uniform(1.0, 3.0);
    cfg.anomaly_frequency_threshold = rng.uniform(0.05, 1.0);
    cfg.refractory_s = rng.uniform(0.0, 5.0);
    SCOPED_TRACE(testing::Message() << "round " << round);
    alarms += expect_matches_reference(cfg, sb.samples);
  }
  EXPECT_GT(alarms, 30u);
}

// ------------------------------------------ parameterized: M sweep

class ThresholdSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdSweep, StrongBurstDetectedAtAllM) {
  const double m = GetParam();
  auto cfg = quick_config();
  cfg.threshold_multiplier_m = m;
  NodeDetector det(cfg);
  StreamBuilder sb;
  sb.add_sea(30.0);
  sb.add_burst(3.0, 600.0);  // overwhelming burst
  sb.add_sea(10.0);
  EXPECT_FALSE(run_detector(det, sb.samples).empty()) << "M = " << m;
}

INSTANTIATE_TEST_SUITE_P(PaperRange, ThresholdSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0));

}  // namespace
}  // namespace sid::core
