// Sink-side plausibility defense: in-band scoring of incoming traffic at
// guarded nodes (the sink and the static cluster heads), no cryptography.
//
// The SID pipeline implicitly trusts every report that arrives over
// multi-hop routing (§V); a single compromised radio can therefore forge
// detections, replay captured traffic, clone identities, or poison dedup
// windows with far-future sequence numbers. The GuardLedger is the
// receiver-side counter: it checks each report/decision against what a
// guard node legitimately knows — the deployment layout (§III-A: positions
// are assigned at deployment), the protocol's sequence discipline (streams
// start near zero each run and advance in small steps), and the plausible
// per-source arrival rate — and runs two tiers of response:
//
//   Tier 1 (per-message filter): messages with implausible sequence
//   numbers (bootstrap far from zero, forward jumps beyond the plausible
//   horizon, rollbacks beyond the dedup span), positions conflicting with
//   the claimed reporter's deployment anchor, or identity mismatches are
//   dropped *before* they can reach the transport dedup window — which is
//   what keeps sequence-poisoning away from legitimate traffic.
//
//   Tier 2 (identity quarantine with hysteresis): traffic that passes
//   every per-message check but floods (more fresh accepted messages per
//   window than any honest source produces — the clone/forgery signature
//   that cannot be neutralized message-by-message) accumulates a decaying
//   suspicion score; crossing the threshold quarantines the claimed
//   identity for a bounded period. Quarantined identities are excluded
//   from fusion/tracking at the guard and (via flooded QuarantineNotices)
//   from routing, with the pooled-fallback machinery absorbing the gap.
//   Deliberately, *filtered* messages never feed the score: spoofed
//   evidence must not let an attacker revoke an arbitrary identity.
//
// The ledger is pure bookkeeping: it draws no randomness and schedules no
// events, so a defended run with no attack traffic is bit-identical to an
// undefended one (test-enforced).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/geometry.h"
#include "wsn/messages.h"

namespace sid::wsn {

struct DefenseConfig {
  /// Strictly opt-in: when false, no ledger exists and no delivery path
  /// changes.
  bool enabled = false;
  /// Nodes whose inbound report/decision traffic is scored and filtered.
  /// Left empty, SidSystem fills in the sink and the static cluster heads.
  std::vector<NodeId> guarded_nodes;
  /// Acoustic contact plausibility (multi-modal path). A claimed SNR
  /// above the ceiling is physically impossible: the sonar equation bounds
  /// received SNR by the loudest plausible source at the minimum
  /// propagation range against the quietest ambient floor. SidSystem
  /// derives the ceiling from its HydrophoneConfig; the default covers the
  /// stock source model with margin. Must exceed kAcousticMinSnrDb.
  double acoustic_max_snr_db = 64.0;
};

// Guard thresholds (DESIGN.md §5h). Every guard applies the same rule, so
// none carries its own copy.

/// A stream first seen further than this from zero is implausible:
/// per-run sequence counters start at zero, and no honest source sends
/// this many messages in a run. Also the bound on forward jumps.
/// Rollbacks of SequenceWindow::kMaxSpan or more behind the watermark
/// (the transport dedup span, wsn/seqnum.h) are replays.
inline constexpr std::uint32_t kSeqHorizon = 4096;
/// Max distance between a report's claimed position and the claimed
/// reporter's deployment anchor (positions are assigned at deployment).
inline constexpr double kPositionToleranceM = 1.0;
/// Rate plausibility: more than `kRateLimit` fresh accepted messages
/// from one claimed identity within `kRateWindowS` is flooding.
inline constexpr double kRateWindowS = 60.0;
inline constexpr std::size_t kRateLimit = 8;
/// Suspicion added per rate violation; decays with the half-life below
/// (hysteresis: isolated violations fade, sustained flooding crosses
/// the threshold).
inline constexpr double kRateScore = 1.5;
inline constexpr double kQuarantineThreshold = 3.0;
inline constexpr double kScoreHalfLifeS = 120.0;
/// Quarantine duration; after expiry the identity is on probation (the
/// next sustained violation re-quarantines it).
inline constexpr double kQuarantineS = 600.0;
/// Beacon range plausibility (impersonation detection from channel
/// measurements): a hello whose measured range differs from the claimed
/// sender's deployment range by more than `frac` of it plus `slack` is a
/// spoof.
inline constexpr double kBeaconRangeToleranceFrac = 0.25;
inline constexpr double kBeaconRangeSlackM = 5.0;
/// Contacts below this SNR carry no detection (the hydrophone's own
/// threshold would have suppressed them), so an honest node never sends
/// one.
inline constexpr double kAcousticMinSnrDb = 0.0;
/// Acoustic rate plausibility: one hydrophone integrating over seconds
/// cannot produce more than `kAcousticRateLimit` fresh contacts per
/// window — a contact flood is the forged-acoustic signature.
inline constexpr double kAcousticRateWindowS = 60.0;
inline constexpr std::size_t kAcousticRateLimit = 12;

static_assert(kSeqHorizon > 0, "seq horizon must be positive");
static_assert(kRateWindowS > 0.0 && kRateLimit > 0,
              "rate window and limit must be positive");
static_assert(kQuarantineThreshold > 0.0,
              "quarantine threshold must be positive");
static_assert(kScoreHalfLifeS > 0.0, "score half-life must be positive");
static_assert(kAcousticRateWindowS > 0.0 && kAcousticRateLimit > 0,
              "acoustic rate window and limit must be positive");

/// Per-message verdict of GuardLedger::assess.
enum class IngressVerdict {
  kAccept,
  kQuarantined,   ///< claimed identity currently quarantined
  kSeqBootstrap,  ///< first sighting implausibly far from zero
  kSeqJump,       ///< forward jump beyond the plausible horizon
  kSeqRollback,   ///< behind the watermark beyond the dedup span
  kPosition,      ///< claimed position conflicts with deployment anchor
  kIdentity,      ///< payload identity conflicts with transport identity
  kRate,          ///< per-identity flood (also feeds the suspicion score)
  kAcousticImplausible,  ///< contact SNR outside the sonar-equation bounds
};

/// Stable lowercase label for a verdict ("accept", "seq_jump", ...), as
/// it appears in kDefense trace events.
std::string_view verdict_name(IngressVerdict verdict);

/// True for the tier-1 verdicts (message dropped, identity not penalized).
constexpr bool verdict_filters(IngressVerdict v) {
  return v == IngressVerdict::kSeqBootstrap ||
         v == IngressVerdict::kSeqJump ||
         v == IngressVerdict::kSeqRollback ||
         v == IngressVerdict::kPosition || v == IngressVerdict::kIdentity ||
         v == IngressVerdict::kRate ||
         v == IngressVerdict::kAcousticImplausible;
}

/// One guard node's suspicion ledger. Owned and fed by the Network (the
/// defense funnel: scripts/lint.py bans mutation from outside src/wsn/).
class GuardLedger {
 public:
  /// `anchors` is the deployment position of every node id — knowledge a
  /// guard legitimately holds (§III-A), not oracle state. Of `config` the
  /// ledger keeps only the acoustic SNR ceiling.
  GuardLedger(NodeId guard, const DefenseConfig& config,
              std::vector<util::Vec2> anchors);

  /// Scores one delivered report/decision message. Mutates watermark,
  /// rate and quarantine state; the caller maps the verdict to counters
  /// and drops the message unless kAccept. Check quarantine_started()
  /// afterwards for a fresh tier-2 trigger.
  IngressVerdict assess(const Message& msg, double t);

  /// Scores one delivered AcousticContactReport message (the per-modality
  /// admission path of the multi-modal pipeline): identity/position checks
  /// as for reports, SNR bounds against the sonar equation, transport and
  /// per-reporter contact sequence watermarks, and a modality-specific
  /// fresh-contact rate window feeding the same suspicion score. Mutates
  /// ledger state exactly like assess().
  IngressVerdict assess_acoustic(const Message& msg, double t);

  /// Attaches the tracer kDefense events are emitted through (rejections,
  /// suspicion crossings, quarantine start/release). Purely
  /// observational: the ledger's verdicts never depend on it.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// True while `id` is quarantined at this guard at time `t`.
  bool quarantined(NodeId id, double t) const;

  /// Identity quarantined by the most recent assess() call, if that call
  /// freshly triggered one (reset on every assess).
  std::optional<NodeId> quarantine_started() const {
    return quarantine_started_;
  }

  /// Current (decayed) suspicion score for an identity.
  double score(NodeId id, double t) const;

  NodeId guard() const { return guard_; }

 private:
  struct IdentityState {
    /// Watermark of the transport (e2e) stream claiming this id as src.
    bool transport_seen = false;
    std::uint32_t transport_high = 0;
    /// Watermark of the per-head decision stream claiming this id.
    bool decision_seen = false;
    std::uint32_t decision_high = 0;
    /// Watermark of the per-reporter acoustic contact stream.
    bool contact_seen = false;
    std::uint32_t contact_high = 0;
    /// Accept times of fresh (watermark-advancing) messages inside the
    /// rate window.
    std::vector<double> fresh_accepts;
    /// Accept times of fresh acoustic contacts (modality-specific rate).
    std::vector<double> acoustic_accepts;
    /// Decaying suspicion score (tier 2).
    double score = 0.0;
    double score_t = 0.0;
    bool quarantined = false;
    double quarantine_until_s = 0.0;
  };

  /// assess() minus the trace emission (the public wrapper reports every
  /// non-accept verdict as a kDefense "guard_reject" event).
  IngressVerdict assess_impl(const Message& msg, double t);
  IngressVerdict assess_acoustic_impl(const Message& msg, double t);
  /// Shared trace wrapper for both assess entry points.
  IngressVerdict report_verdict(const Message& msg, IngressVerdict verdict,
                                double t);
  /// Quarantine gate shared by both admission paths: true while the id is
  /// quarantined; releases expired quarantines on the way (probation).
  bool quarantine_gate(NodeId id, double t);
  IdentityState& state(NodeId id);
  double decayed_score(const IdentityState& s, double t) const;
  /// Pure sequence-plausibility check against a watermark. The caller
  /// commits the returned watermark only when the *whole* message is
  /// accepted, so rejected messages can never poison the ledger's view.
  struct StreamCheck {
    IngressVerdict verdict = IngressVerdict::kAccept;
    bool fresh = false;  ///< the watermark would move forward
    bool seen = false;
    std::uint32_t high = 0;
  };
  StreamCheck check_stream(bool seen, std::uint32_t high,
                           std::uint32_t seq) const;
  /// Registers a fresh accept in a sliding rate window (reports and
  /// acoustic contacts keep separate windows and limits); true on
  /// violation.
  bool window_violation(std::vector<double>& window, double t,
                        double window_s, std::size_t limit) const;
  void add_suspicion(NodeId id, IdentityState& s, double amount, double t);

  NodeId guard_ = 0;
  double acoustic_max_snr_db_ = 0.0;
  std::vector<util::Vec2> anchors_;
  std::map<NodeId, IdentityState> states_;
  std::optional<NodeId> quarantine_started_;
  obs::Tracer* tracer_ = nullptr;  ///< not owned; may stay null
};

}  // namespace sid::wsn
