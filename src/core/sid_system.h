// SidSystem: the full distributed intrusion-detection pipeline (§IV-A),
// executed on the discrete-event WSN simulator.
//
//   node-level detection  ->  temporary cluster formation (invite flood,
//   6 hops)  ->  report collection at the temporary head  ->  cluster-
//   level spatio-temporal correlation + speed estimation  ->  decision
//   forwarded to the static cluster head  ->  sink.
//
// The sink is the gateway node NetworkConfig::sink_node (grid (0, 0) by
// default), whose satellite uplink to the external user is assumed
// reliable (§IV-A "the final decision will be reported to the external
// user via satellite or other means"). The node spacing D the speed
// estimator inverts with is NetworkConfig::spacing_m; the network config
// is the only place either value lives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/cluster.h"
#include "core/fusion.h"
#include "core/scenario.h"
#include "core/tracker.h"
#include "obs/telemetry.h"
#include "util/thread_annotations.h"
#include "wsn/network.h"
#include "wsn/reliable.h"
#include "wsn/seqnum.h"

namespace sid::core {

// Pipeline constants. Every node runs the same protocol, so no config
// carries its own copy (fallback timers: DESIGN.md §5c; contact
// thinning: §5k).

/// Side length (in nodes) of the static cluster cells; the node at the
/// cell centre is the static cluster head.
inline constexpr std::size_t kStaticCellSize = 3;
/// After a temporary cluster's collection window closes, members wait
/// this long, then probe the head end-to-end; a give-up verdict means
/// they re-submit their reports to the static head.
inline constexpr double kHeadFallbackGraceS = 5.0;
/// Orphan-report collection window at a static head before it runs the
/// fallback evaluation itself.
inline constexpr double kFallbackWindowS = 30.0;
/// Origin-side thinning of acoustic contacts: a hydrophone node reports at
/// most one contact per this interval (a sustained close pass fires the
/// detector every integration period; reporting each look would flood
/// the radio and trip the sink ledger's contact-rate window).
inline constexpr double kMinContactIntervalS = 10.0;
/// Tolerance when matching node alarms against ground-truth wake
/// arrivals for the detect.* outcome counters (observability only; does
/// not influence the protocol).
inline constexpr double kDetectionMatchToleranceS = 6.0;

static_assert(kStaticCellSize >= 1, "static cells hold at least one node");

/// Graceful-degradation knobs (§IV-C requires the protocol to survive
/// "wireless communication errors and possible network congestions";
/// the fault layer adds node death on top).
struct ResilienceConfig {
  /// End-to-end ARQ for report/decision/probe traffic (ack by sequence
  /// number, capped exponential backoff + jitter, explicit give-up).
  wsn::ReliableConfig e2e;
  /// Beacon processes outlive the sensing window by this much so late
  /// protocol traffic (retries, fallback evaluations) still routes over
  /// fresh liveness state.
  double beacon_horizon_slack_s = 90.0;
};

struct SidSystemConfig {
  /// The deployment: grid, spacing D, sink node, radio, faults, defense.
  wsn::NetworkConfig network;
  ScenarioConfig scenario;
  ClusterConfig cluster;
  /// Sink-side multi-modal fusion (core/fusion.h). use_acoustic is
  /// intersected with scenario.acoustic.enabled, so the acoustic lane only
  /// exists when the deployment actually carries hydrophones.
  MultiModalConfig fusion;
  ResilienceConfig resilience;
};

/// A decision that reached the sink.
struct SinkReport {
  wsn::ClusterDecision decision;
  double sink_time_s = 0.0;
};

struct SystemResult {
  std::vector<SinkReport> sink_reports;
  /// Vessel tracks the sink assembled from intrusion decisions (active
  /// first, then retired).
  std::vector<VesselTrack> tracks;
  std::size_t alarms_raised = 0;
  std::size_t clusters_formed = 0;
  std::size_t clusters_cancelled = 0;
  /// Temporary clusters whose head died before evaluating (members fall
  /// back to the static head).
  std::size_t clusters_abandoned = 0;
  std::size_t decisions_sent = 0;
  /// Decision sends re-targeted at the sink after the static-head relay
  /// leg exhausted its end-to-end retry budget.
  std::size_t decision_retries = 0;
  /// Decisions whose final reliable send gave up (explicit kGaveUp, never
  /// a silent hang).
  std::size_t decisions_lost = 0;
  /// Reports re-submitted to a static head after the temporary head died.
  std::size_t fallback_reports = 0;
  /// Decisions produced by a static head's fallback evaluation.
  std::size_t fallback_decisions = 0;
  /// Duplicate decisions suppressed at the sink by sequence number.
  std::size_t duplicates_suppressed = 0;
  /// Multi-modal path: acoustic contacts accepted at the sink, in
  /// acceptance order (empty when acoustic sensing is disabled and no
  /// forged contact slipped through).
  std::vector<wsn::AcousticContactReport> acoustic_contacts;
  /// Sink-side fused detections from the MultiModalFuser.
  std::vector<FusedTrackDecision> fused;
  std::size_t acoustic_contacts_sent = 0;
  std::size_t acoustic_contacts_accepted = 0;
  /// Duplicate contacts suppressed at the sink by per-reporter seq.
  std::size_t acoustic_duplicates_suppressed = 0;
  std::size_t fused_detections = 0;
  wsn::NetworkStats network_stats;
  double total_energy_mj = 0.0;

  /// True when at least one intrusion decision reached the sink.
  bool intrusion_reported() const;
  /// Best (highest-correlation) speed estimate that reached the sink, in
  /// knots; nullopt when none carried a valid speed.
  std::optional<double> reported_speed_knots() const;
  /// Tracks with at least two associated decisions.
  std::size_t confirmed_tracks() const;
};

class SidSystem {
 public:
  explicit SidSystem(const SidSystemConfig& config);

  /// Runs the complete pipeline for the given ship passes and returns
  /// what the sink saw.
  SystemResult run(std::span<const wake::ShipTrackConfig> ships);

  const wsn::Network& network() const { return network_; }

  /// The metrics registry the whole pipeline records into (owned by the
  /// network so "net.*", "sid.*" and "detect.*" share one dump).
  obs::Registry& registry() { return network_.registry(); }
  const obs::Registry& registry() const { return network_.registry(); }

  /// The structured event tracer (disabled until opened/attached).
  obs::Tracer& tracer() { return network_.tracer(); }
  const obs::Tracer& tracer() const { return network_.tracer(); }

  /// The always-on crash flight recorder (owned by the network).
  obs::FlightRecorder& flight_recorder() { return network_.flight_recorder(); }
  const obs::FlightRecorder& flight_recorder() const {
    return network_.flight_recorder();
  }

  /// Arms the sim-time telemetry sampler: run() schedules one sample tick
  /// per interval on the event queue (kSim domain, bit-deterministic).
  /// Ticks are scheduled even in the metrics-off build — the sampling
  /// body compiles away but the event sequence stays identical — so the
  /// two configurations tie-break the queue the same way.
  void enable_telemetry(const obs::TelemetryConfig& telemetry);

  /// The armed sampler, or nullptr when enable_telemetry was never called.
  obs::TelemetrySampler* telemetry() { return telemetry_.get(); }
  const obs::TelemetrySampler* telemetry() const { return telemetry_.get(); }

  /// Static cluster head node for a given node (the centre of its cell).
  wsn::NodeId static_head_of(wsn::NodeId id) const;

 private:
  struct HeadState {
    std::vector<wsn::DetectionReport> reports;
    double deadline_s = 0.0;
    bool evaluated = false;
  };
  struct MemberState {
    std::optional<wsn::NodeId> head;   ///< temporary cluster membership
    double membership_expires_s = 0.0;
    std::optional<wsn::DetectionReport> pending_report;
    /// Reports already sent to the current head, kept until the member
    /// has verified the head survived the collection window.
    std::vector<wsn::DetectionReport> submitted;
    bool fallback_check_scheduled = false;
  };
  /// Orphan reports collected at a static head after a temporary head
  /// died mid-window.
  struct FallbackState {
    std::vector<wsn::DetectionReport> reports;
    bool scheduled = false;
  };
  /// Protocol counters live in the registry; the SystemResult fields are
  /// snapshots of these at the end of run() (never a second copy). The
  /// references are resolved once at construction so the hot path is a
  /// relaxed atomic add.
  struct SidCounters {
    explicit SidCounters(obs::Registry& registry);
    void reset();
    obs::Counter& alarms_raised;
    obs::Counter& clusters_formed;
    obs::Counter& clusters_cancelled;
    obs::Counter& clusters_abandoned;
    obs::Counter& decisions_sent;
    obs::Counter& decision_retries;
    obs::Counter& decisions_lost;
    obs::Counter& fallback_reports;
    obs::Counter& fallback_decisions;
    obs::Counter& duplicates_suppressed;
    obs::Counter& acoustic_contacts_sent;
    obs::Counter& acoustic_contacts_accepted;
    obs::Counter& acoustic_duplicates;
    obs::Counter& fused_detections;
    obs::Counter& true_alarms;
    obs::Counter& false_alarms;
    obs::Counter& missed_wakes;
    /// Front-end work, exact for a seed: trace samples synthesized and
    /// samples the node detectors processed, added once per run from the
    /// per-node totals.
    obs::Counter& samples_synthesized;
    obs::Counter& samples_processed;
    /// Sim-time seconds from decision creation at a cluster head to
    /// acceptance at the sink (first copy only).
    obs::Histogram& decision_latency_s;
  };

  // Every protocol handler below runs on the event-loop thread only and
  // declares SID_REQUIRES(loop_checker_): the capability analysis proves
  // no guarded state is touched outside a handler, and each event-queue /
  // transport callback entry point asserts the role at runtime with
  // loop_checker_.check() (DESIGN.md §5i).
  void on_alarm(wsn::NodeId node, const wsn::DetectionReport& report,
                double t) SID_REQUIRES(loop_checker_);
  void on_deliver(wsn::NodeId receiver, const wsn::Message& msg, double t)
      SID_REQUIRES(loop_checker_);
  void evaluate_head(wsn::NodeId head) SID_REQUIRES(loop_checker_);
  /// Sends a detection report to the member's temporary head over the
  /// reliable transport and arms the member-side liveness check.
  void submit_report(wsn::NodeId member, wsn::NodeId head,
                     const wsn::DetectionReport& report)
      SID_REQUIRES(loop_checker_);
  /// Member-side timeout after the collection window: probe the head
  /// end-to-end; a kGaveUp verdict is the in-band death signal that
  /// triggers the fallback re-submission. A member whose own neighbor
  /// table already suspects the head skips the probe round-trip.
  void head_fallback_check(wsn::NodeId member, wsn::NodeId head)
      SID_REQUIRES(loop_checker_);
  /// Re-submits the member's buffered reports to the dead head's static
  /// cluster head (escalating to the sink when that leg also gives up).
  void do_fallback(wsn::NodeId member, wsn::NodeId head,
                   std::vector<wsn::DetectionReport> buffered, double t)
      SID_REQUIRES(loop_checker_);
  /// Static-head fallback evaluation over collected orphan reports.
  void evaluate_fallback(wsn::NodeId head) SID_REQUIRES(loop_checker_);
  void accept_at_sink(const wsn::ClusterDecision& decision, double t)
      SID_REQUIRES(loop_checker_);
  /// Sends one (pre-built, trace-stamped) acoustic contact report from a
  /// hydrophone node straight to the sink over the reliable transport.
  void submit_contact(wsn::NodeId node, wsn::AcousticContactReport contact,
                      double t) SID_REQUIRES(loop_checker_);
  /// Sink-side acceptance of an admitted acoustic contact: per-reporter
  /// dedup, counters, span_sink, then the acoustic fusion lane.
  void accept_acoustic_at_sink(const wsn::AcousticContactReport& contact,
                               double t) SID_REQUIRES(loop_checker_);
  /// Surfaces one fused multi-modal detection: counters, sink_fused
  /// trace, a kFused span chain linking back to both modality origins.
  void emit_fused(const FusedTrackDecision& fused, double t)
      SID_REQUIRES(loop_checker_);
  /// Sends a decision toward `dst` over the reliable transport; when the
  /// static-head relay leg gives up, re-targets the sink directly.
  void send_decision(wsn::NodeId from, wsn::NodeId dst,
                     const wsn::ClusterDecision& decision)
      SID_REQUIRES(loop_checker_);
  /// Fills protocol fields (per-head seq, timestamps) of a new decision.
  wsn::ClusterDecision make_decision(wsn::NodeId head,
                                     const ClusterDecisionResult& verdict,
                                     std::span<const wsn::DetectionReport>
                                         reports,
                                     double now)
      SID_REQUIRES(loop_checker_);
  static std::uint64_t decision_key(const wsn::ClusterDecision& decision) {
    return (static_cast<std::uint64_t>(decision.head) << 32) |
           decision.seq;
  }

  SidSystemConfig config_;
  wsn::Network network_;
  SidCounters counters_;
  ClusterEvaluator evaluator_;
  wsn::ReliableTransport reliable_;
  /// Sim-time telemetry series (nullptr until enable_telemetry); sampled
  /// only from event-loop ticks scheduled by run().
  std::unique_ptr<obs::TelemetrySampler> telemetry_;
  /// The event-loop thread role: all listener/dedup state below is
  /// confined to the single thread driving run() / the event queue (the
  /// front-end parallelism in core/scenario never touches it). check()
  /// aborts if a second thread ever enters a handler.
  util::ThreadChecker loop_checker_;
  Tracker tracker_ SID_GUARDED_BY(loop_checker_);
  std::map<wsn::NodeId, HeadState> heads_ SID_GUARDED_BY(loop_checker_);
  std::vector<MemberState> members_ SID_GUARDED_BY(loop_checker_);
  std::map<wsn::NodeId, FallbackState> fallbacks_
      SID_GUARDED_BY(loop_checker_);
  /// Sink-side duplicate suppression: one wraparound-safe sequence
  /// window per originating head (multi-path duplicates and retransmits
  /// alike land here).
  std::map<wsn::NodeId, wsn::SequenceWindow> sink_windows_
      SID_GUARDED_BY(loop_checker_);
  /// Sink-side acoustic dedup: one wraparound-safe window per reporting
  /// hydrophone (separate from the decision windows — the two payload
  /// classes have independent sequence streams).
  std::map<wsn::NodeId, wsn::SequenceWindow> acoustic_windows_
      SID_GUARDED_BY(loop_checker_);
  /// Sink-side multi-modal fusion state machine (core/fusion.h).
  MultiModalFuser fuser_ SID_GUARDED_BY(loop_checker_);
  /// Hydrophone identities quarantined this run; once every hydrophone
  /// has been revoked the acoustic lane itself is marked quarantined and
  /// the fuser degrades to the accel modality.
  std::set<wsn::NodeId> quarantined_hydrophones_
      SID_GUARDED_BY(loop_checker_);
  std::size_t hydrophone_count_ = 0;
  /// Per-run index of fused emissions (kFused trace-id seq component).
  std::uint64_t next_fused_index_ SID_GUARDED_BY(loop_checker_) = 0;
  /// (head, seq) -> sim time the decision was created (latency metric).
  std::map<std::uint64_t, double> decision_created_s_
      SID_GUARDED_BY(loop_checker_);
  /// (reporter, seq) -> sim time the contact was submitted (span latency).
  std::map<std::uint64_t, double> contact_created_s_
      SID_GUARDED_BY(loop_checker_);
  /// Per-head decision sequence counters (no global coordination).
  std::map<wsn::NodeId, std::uint32_t> next_decision_seq_
      SID_GUARDED_BY(loop_checker_);
  SystemResult result_ SID_GUARDED_BY(loop_checker_);
  /// The gateway, read from the network (NetworkConfig::sink_node).
  const wsn::NodeId sink_node_;
};

}  // namespace sid::core
