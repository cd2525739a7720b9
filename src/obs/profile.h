// Pipeline profiling hooks: RAII wall-clock timers feeding per-stage
// histograms in a process-global profile registry (DESIGN.md §5e).
//
// Each DSP/pipeline stage (filter, STFT, wavelet, features, correlation,
// detector, synthesis) and the event-queue dispatch loop wraps its body
// in SID_PROFILE_STAGE(Stage::kX). The timers read the wall clock, so
// their histograms are registered as Clock::kWall and excluded from
// deterministic metric dumps; they never influence simulation behaviour.
//
// Thread-safe (DESIGN.md §5i): stage timers run on parallel_for workers
// (per-node synthesis/detection wraps kSynthesis/kDetector scopes), so
// the process-global registry relies on Registry's internal lock for
// creation and on Histogram's record mutex for concurrent records. The
// first stage_histogram() call builds the stage table under the C++
// static-initialization guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "obs/metrics.h"

namespace sid::obs {

/// Instrumented pipeline stages. Keep stage_name() in sync.
enum class Stage : std::size_t {
  kFilter = 0,     ///< IIR/FIR batch filtering (dsp/filter)
  kStft,           ///< short-time Fourier transform (dsp/stft)
  kWavelet,        ///< Morlet CWT (dsp/wavelet)
  kFeatures,       ///< spectral feature extraction (dsp/features)
  kCorrelation,    ///< cluster spatio-temporal correlation (core)
  kDetector,       ///< node-level detector over a whole trace (core)
  kSynthesis,      ///< sensor-trace synthesis (ocean + wake + sensing)
  kEventDispatch,  ///< one event-queue callback (wsn/event_queue)
  kFusion,         ///< multi-modal accel+acoustic fusion (core/fusion)
  kAdjacency,      ///< grid-walk adjacency build (wsn/network)
  kShardWindow,    ///< one windowed-engine barrier window (wsn/network)
  kRouting,        ///< one unicast route search (wsn/network)
  kCount,
};

std::string_view stage_name(Stage stage);

/// The process-global profiling registry. Holds one wall-clock histogram
/// per stage, named "profile.<stage>_ns", with shared log-spaced
/// nanosecond buckets (1 us .. 10 s).
Registry& profile_registry();

/// The stage's histogram (values in nanoseconds). Cheap: array lookup.
Histogram& stage_histogram(Stage stage);

/// Zeroes every stage histogram (bench smoke runs call this between
/// workloads so each dump reflects one workload only).
void reset_profile();

/// Process-global framing counter "dsp.tail_samples_dropped": samples that
/// fell outside the last full STFT frame / Welch segment and were silently
/// excluded from analysis (the framing contract documented in dsp/stft.h
/// and dsp/spectrum.h). Lives in the profile registry, so reset_profile()
/// zeroes it. Thread-safe (atomic): DSP runs on parallel_for workers.
Counter& dsp_tail_dropped_counter();

/// Monotonic wall-clock nanoseconds (profiling only — simulation time
/// comes from the event queue, never from here).
std::uint64_t monotonic_ns();

/// RAII scope timer: records the scope's wall-clock duration into the
/// stage's histogram on destruction.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(Stage stage)
      : stage_(stage), start_ns_(monotonic_ns()) {}
  ~ScopedStageTimer() {
    stage_histogram(stage_).record(
        static_cast<double>(monotonic_ns() - start_ns_));
  }
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  Stage stage_;
  std::uint64_t start_ns_;
};

}  // namespace sid::obs

#if SID_METRICS_ENABLED
#define SID_OBS_CONCAT2(a, b) a##b
#define SID_OBS_CONCAT(a, b) SID_OBS_CONCAT2(a, b)
#define SID_PROFILE_STAGE(stage) \
  ::sid::obs::ScopedStageTimer SID_OBS_CONCAT(sid_profile_scope_, \
                                              __LINE__)(stage)
#else
#define SID_PROFILE_STAGE(stage) ((void)0)
#endif
