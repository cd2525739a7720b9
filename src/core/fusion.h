// Sink-side accelerometer + acoustic fusion (§VII future work): the
// MultiModalFuser associates admitted cluster decisions with admitted
// hydrophone contacts in time and fuses them under an AND / OR policy.
// AND suppresses the single-modality false alarms (wake-less clutter,
// waveless engine noise never co-occur randomly); OR extends coverage to
// ranges where only one modality still fires.
#pragma once

#include <cstdint>
#include <vector>

namespace sid::core {

enum class FusionPolicy {
  kOr,   ///< either modality alone raises a fused detection
  kAnd,  ///< both modalities must fire within the association window
};

/// Events closer than this in time are considered the same physical
/// cause. The wake arrives minutes after the engine noise at long range,
/// so the window is generous. The interval is CLOSED on both ends: two
/// events associate iff |t_a - t_b| <= kAssociationWindowS (an event
/// exactly at the window edge still pairs — test-enforced).
inline constexpr double kAssociationWindowS = 30.0;
/// An emission within this long of the previous one is suppressed. Also
/// a CLOSED interval: t - t_last_emit <= kDedupWindowS is suppressed;
/// strictly beyond it a new fused decision fires (test-enforced).
inline constexpr double kDedupWindowS = 20.0;
/// Per-modality weights of the confidence vote. An event's weighted
/// confidence is weight * confidence (clamped to [0, 1] after summing
/// across contributing modalities).
inline constexpr double kAccelWeight = 0.6;
inline constexpr double kAcousticWeight = 0.5;
/// A fused decision is emitted only when its weighted confidence reaches
/// this floor. Low on purpose: a degraded single modality (weight *
/// confidence) must still clear it, or degradation would silence the
/// survivor instead of keeping it alive.
inline constexpr double kMinFusedConfidence = 0.2;
/// A modality with no admitted evidence for longer than this is stale
/// (faulted or partitioned away — the fuser cannot tell which) and counts
/// as down for the degradation ladder until its next admitted event.
inline constexpr double kStaleTimeoutS = 120.0;

/// The two evidence streams the sink-side fuser consumes.
enum class Modality {
  kAccel,     ///< accelerometer cluster decisions (the paper's pipeline)
  kAcoustic,  ///< hydrophone contact reports (multi-modal path)
};

/// Sink-side multi-modal fusion settings. Everything else is one of the
/// named constants above.
struct MultiModalConfig {
  FusionPolicy policy = FusionPolicy::kAnd;
  /// Modalities that exist in this deployment at all. A disabled modality
  /// is permanently down for the ladder: kAnd with use_acoustic=false
  /// behaves exactly like the degraded single-modality path.
  bool use_accel = true;
  bool use_acoustic = true;
};

/// One fused sink decision. Carries the causal trace ids of the newest
/// contributing event per modality (zero when that modality did not
/// contribute or its event was untraced) so the sink can emit span_fuse
/// links back to both origin chains (obs/span.h, SpanKind::kFused).
struct FusedTrackDecision {
  double time_s = 0.0;  ///< sink time the fused decision fired
  bool has_accel = false;
  bool has_acoustic = false;
  double confidence = 0.0;  ///< weighted, clamped to [0, 1]
  std::uint64_t accel_trace_id = 0;
  std::uint64_t acoustic_trace_id = 0;
};

/// Streaming sink-side fuser: evidence arrives event-by-event (accel =
/// admitted ClusterDecisions, acoustic = admitted AcousticContactReports)
/// in delivery order, and the fuser emits FusedTrackDecisions
/// incrementally.
///
/// A modality is *down* when it is disabled, quarantined, or stale. The
/// degradation ladder keeps the sink alive as modalities die:
///   kAnd, both modalities live  -> needs a partner of the other modality
///       within kAssociationWindowS (closed);
///       confidence = accel_w * c_accel + acoustic_w * c_acoustic.
///   exactly one down (or kOr)   -> the event stands alone;
///       confidence = weight * c.
///   both down                   -> silence.
/// An emission within kDedupWindowS (closed) of the previous one is
/// suppressed: a returned decision cannot be mutated after the fact.
/// Fused decisions are stamped at the ingest time that completed them, so
/// emissions are monotone in sink time.
///
/// Deterministic, no randomness, no scheduled events. Like the
/// GuardLedger, the fuser is pure bookkeeping: feeding it zero acoustic
/// evidence leaves the accel-only pipeline bit-identical.
class MultiModalFuser {
 public:
  explicit MultiModalFuser(const MultiModalConfig& config = {});

  /// Feeds one admitted piece of evidence; returns the fused decisions it
  /// completed (empty most of the time). `confidence` is the modality's
  /// own quality score in [0, 1] (accel: decision correlation; acoustic:
  /// normalized SNR). Evidence for a quarantined/disabled modality is
  /// discarded; admitted evidence revives a stale one.
  std::vector<FusedTrackDecision> ingest(Modality modality, double t,
                                         double confidence,
                                         std::uint64_t trace_id = 0);

  /// Quarantine listener input: every source of `modality` was revoked.
  /// Its pending evidence is dropped and its future evidence discarded
  /// until reset().
  void quarantine(Modality modality);

  /// Effective degradation rung at time `t`: true when kAnd has degraded
  /// to single-modality OR (exactly one modality down).
  bool degraded(double t) const;

  /// Clears evidence, quarantine and emission state for a new run
  /// starting at `start_time_s` (staleness is measured from here until
  /// the first admitted event).
  void reset(double start_time_s);

 private:
  struct Pending {
    double time = 0.0;
    double confidence = 0.0;
    std::uint64_t trace_id = 0;
  };
  struct Lane {
    std::vector<Pending> pending;
    double last_seen = 0.0;  ///< last admitted event (or reset) time
    bool enabled = true;
    bool quarantined = false;
  };

  Lane& lane(Modality m);
  /// Down for the ladder: disabled, quarantined, or stale at time t.
  static bool down(const Lane& lane, double t);
  void emit(std::vector<FusedTrackDecision>& out, FusedTrackDecision d);

  MultiModalConfig config_;
  Lane accel_;
  Lane acoustic_;
  double last_emit_s_ = 0.0;
  bool emitted_any_ = false;
};

}  // namespace sid::core
