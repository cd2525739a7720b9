#include "core/sid_system.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/span.h"
#include "util/check.h"
#include "util/error.h"
#include "util/units.h"

namespace sid::core {

namespace {

/// Static cluster head for the cell containing grid (row, col): the cell
/// centre, clamped into the grid. Pure so both static_head_of and the
/// default-guard computation (which runs before the Network exists) share
/// one definition.
wsn::NodeId cell_head_id(std::size_t row, std::size_t col, std::size_t rows,
                         std::size_t cols) {
  constexpr std::size_t cell = kStaticCellSize;
  const std::size_t head_row = std::min((row / cell) * cell + cell / 2,
                                        rows - 1);
  const std::size_t head_col = std::min((col / cell) * cell + cell / 2,
                                        cols - 1);
  return static_cast<wsn::NodeId>(head_row * cols + head_col);
}

/// When the defense is enabled with no explicit guard set, guard the
/// natural aggregation points: the sink and every static cluster head —
/// exactly the nodes all report/decision traffic converges on, so the
/// ledgers see the complete evidence stream.
wsn::NetworkConfig with_default_guards(const SidSystemConfig& config) {
  wsn::NetworkConfig net = config.network;
  if (!net.defense.enabled) return net;
  if (net.defense.guarded_nodes.empty()) {
    std::vector<wsn::NodeId> guards{net.sink_node};
    for (std::size_t r = 0; r < net.rows; r += kStaticCellSize) {
      for (std::size_t c = 0; c < net.cols; c += kStaticCellSize) {
        const wsn::NodeId head = cell_head_id(r, c, net.rows, net.cols);
        if (std::find(guards.begin(), guards.end(), head) == guards.end()) {
          guards.push_back(head);
        }
      }
    }
    net.defense.guarded_nodes = std::move(guards);
  }
  if (config.scenario.acoustic.enabled) {
    // Derive the ledger's sonar-equation SNR ceiling from the deployment's
    // actual hydrophone model: the loudest plausible small craft (4x the
    // reference speed) at the near-field range floor against the quietest
    // ambient, plus margin. Anything above it is physically impossible,
    // however honest the claimed identity looks.
    const auto& sonar = config.scenario.acoustic.hydrophone.sonar;
    net.defense.acoustic_max_snr_db =
        sonar.snr_db(4.0 * sonar.source.reference_speed_mps,
                     sonar.propagation.min_range_m, ocean::SeaState::kCalm) +
        3.0;
  }
  return net;
}

/// The fuser's acoustic lane only exists when the deployment carries
/// hydrophones at all.
MultiModalConfig derive_fusion_config(const SidSystemConfig& config) {
  MultiModalConfig fusion = config.fusion;
  fusion.use_acoustic =
      fusion.use_acoustic && config.scenario.acoustic.enabled;
  return fusion;
}

/// Confidence of an acoustic contact for the fusion vote: post-integration
/// SNR normalized against a strong-contact reference (20 dB saturates).
double contact_confidence(double snr_db) {
  return std::clamp(snr_db / 20.0, 0.0, 1.0);
}

std::uint64_t contact_key(const wsn::AcousticContactReport& contact) {
  return (static_cast<std::uint64_t>(contact.reporter) << 32) | contact.seq;
}

}  // namespace

bool SystemResult::intrusion_reported() const {
  return std::any_of(sink_reports.begin(), sink_reports.end(),
                     [](const SinkReport& r) { return r.decision.intrusion; });
}

std::size_t SystemResult::confirmed_tracks() const {
  std::size_t count = 0;
  for (const auto& track : tracks) {
    if (track.confirmed()) ++count;
  }
  return count;
}

std::optional<double> SystemResult::reported_speed_knots() const {
  const SinkReport* best = nullptr;
  for (const auto& r : sink_reports) {
    if (r.decision.estimated_speed_mps <= 0.0) continue;
    if (!best || r.decision.correlation > best->decision.correlation) {
      best = &r;
    }
  }
  if (!best) return std::nullopt;
  return util::mps_to_knots(best->decision.estimated_speed_mps);
}

SidSystem::SidCounters::SidCounters(obs::Registry& registry)
    : alarms_raised(registry.counter("sid.alarms_raised")),
      clusters_formed(registry.counter("sid.clusters_formed")),
      clusters_cancelled(registry.counter("sid.clusters_cancelled")),
      clusters_abandoned(registry.counter("sid.clusters_abandoned")),
      decisions_sent(registry.counter("sid.decisions_sent")),
      decision_retries(registry.counter("sid.decision_retries")),
      decisions_lost(registry.counter("sid.decisions_lost")),
      fallback_reports(registry.counter("sid.fallback_reports")),
      fallback_decisions(registry.counter("sid.fallback_decisions")),
      duplicates_suppressed(registry.counter("sid.duplicates_suppressed")),
      acoustic_contacts_sent(
          registry.counter("sid.acoustic_contacts_sent")),
      acoustic_contacts_accepted(
          registry.counter("sid.acoustic_contacts_accepted")),
      acoustic_duplicates(registry.counter("sid.acoustic_duplicates")),
      fused_detections(registry.counter("sid.fused_detections")),
      true_alarms(registry.counter("detect.true_alarms")),
      false_alarms(registry.counter("detect.false_alarms")),
      missed_wakes(registry.counter("detect.missed_wakes")),
      samples_synthesized(registry.counter("sense.samples_synthesized")),
      samples_processed(registry.counter("detect.samples_processed")),
      decision_latency_s(registry.histogram(
          "sid.decision_latency_s",
          {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 60.0, 120.0, 300.0, 600.0},
          obs::Histogram::Clock::kSim)) {}

void SidSystem::SidCounters::reset() {
  alarms_raised.reset();
  clusters_formed.reset();
  clusters_cancelled.reset();
  clusters_abandoned.reset();
  decisions_sent.reset();
  decision_retries.reset();
  decisions_lost.reset();
  fallback_reports.reset();
  fallback_decisions.reset();
  duplicates_suppressed.reset();
  acoustic_contacts_sent.reset();
  acoustic_contacts_accepted.reset();
  acoustic_duplicates.reset();
  fused_detections.reset();
  true_alarms.reset();
  false_alarms.reset();
  missed_wakes.reset();
  samples_synthesized.reset();
  samples_processed.reset();
  decision_latency_s.reset();
}

SidSystem::SidSystem(const SidSystemConfig& config)
    : config_(config),
      network_(with_default_guards(config)),
      counters_(network_.registry()),
      evaluator_(config.cluster, config.network.spacing_m),
      reliable_(network_, config.resilience.e2e),
      members_(network_.node_count()),
      fuser_(derive_fusion_config(config)),
      sink_node_(network_.sink_node()) {
  for (std::size_t id = 0; id < network_.node_count(); ++id) {
    if (carries_hydrophone(config_.scenario.acoustic,
                           static_cast<wsn::NodeId>(id))) {
      ++hydrophone_count_;
    }
  }
  network_.set_delivery_handler(
      [this](wsn::NodeId receiver, const wsn::Message& msg, double t) {
        loop_checker_.check();
        on_deliver(receiver, msg, t);
      });
  if (network_.defense_active()) {
    // Quarantine revokes an identity's transport history: dedup windows
    // the attacker may have poisoned with far-future sequence numbers are
    // dropped so the (possibly innocent, impersonated) identity can
    // re-bootstrap cleanly after release.
    network_.set_quarantine_listener([this](wsn::NodeId subject, double) {
      loop_checker_.check();
      reliable_.forget_source(subject);
      sink_windows_.erase(subject);
      acoustic_windows_.erase(subject);
      if (carries_hydrophone(config_.scenario.acoustic, subject)) {
        // Degradation ladder input: a revoked hydrophone identity counts
        // as revoked for the rest of the run (release is probationary,
        // not a restored trust verdict). Only when the *last* hydrophone
        // falls does the acoustic lane itself go down and the fuser
        // degrade to the accelerometer modality.
        quarantined_hydrophones_.insert(subject);
        if (hydrophone_count_ > 0 &&
            quarantined_hydrophones_.size() == hydrophone_count_) {
          fuser_.quarantine(Modality::kAcoustic);
        }
      }
    });
  }
}

void SidSystem::enable_telemetry(const obs::TelemetryConfig& telemetry) {
  telemetry_ = std::make_unique<obs::TelemetrySampler>(network_.registry(),
                                                       telemetry);
}

wsn::NodeId SidSystem::static_head_of(wsn::NodeId id) const {
  const auto& info = network_.node(id);
  return cell_head_id(static_cast<std::size_t>(info.grid_row),
                      static_cast<std::size_t>(info.grid_col),
                      config_.network.rows, config_.network.cols);
}

void SidSystem::submit_report(wsn::NodeId member_id, wsn::NodeId head,
                              const wsn::DetectionReport& report) {
  wsn::Message msg;
  msg.src = member_id;
  msg.dst = head;
  msg.payload = report;
  reliable_.send(std::move(msg));
  MemberState& member = members_[member_id];
  member.submitted.push_back(report);
  if (member.fallback_check_scheduled) return;
  member.fallback_check_scheduled = true;
  const double check_at =
      std::max(member.membership_expires_s + kHeadFallbackGraceS,
               network_.events().now());
  network_.events().schedule_at(check_at, [this, member_id, head] {
    loop_checker_.check();
    head_fallback_check(member_id, head);
  });
}

void SidSystem::head_fallback_check(wsn::NodeId member_id, wsn::NodeId head) {
  MemberState& member = members_[member_id];
  member.fallback_check_scheduled = false;
  std::vector<wsn::DetectionReport> buffered = std::move(member.submitted);
  member.submitted.clear();
  const double now = network_.events().now();
  // A member that died in the meantime stays silent (its own state).
  if (!network_.can_execute(member_id, now)) return;
  // In-band liveness, never the oracle: if the member's own neighbor
  // table already suspects the head dead, fall back immediately.
  // Otherwise probe the head end-to-end — the transport ack is the proof
  // of life, and an exhausted retry budget (kGaveUp) is the distributed
  // death verdict.
  if (network_.suspects(member_id, head)) {
    do_fallback(member_id, head, std::move(buffered), now);
    return;
  }
  wsn::Message probe;
  probe.src = member_id;
  probe.dst = head;
  probe.payload = wsn::LivenessProbe{member_id};
  reliable_.send(std::move(probe),
                 [this, member_id, head,
                  buffered = std::move(buffered)](wsn::ReliableOutcome outcome,
                                                  double t) mutable {
                   loop_checker_.check();
                   if (outcome == wsn::ReliableOutcome::kAcked) {
                     // Head alive: it collected the reports and evaluated
                     // normally; nothing to repair.
                     return;
                   }
                   if (!network_.can_execute(member_id, t)) return;
                   do_fallback(member_id, head, std::move(buffered), t);
                 });
}

void SidSystem::do_fallback(wsn::NodeId member_id, wsn::NodeId head,
                            std::vector<wsn::DetectionReport> buffered,
                            double t) {
  // Re-submit the orphaned reports to the dead head's static cluster
  // head, so the whole orphan set pools at one place and a single
  // fallback evaluation can span enough grid rows to pass the intrusion
  // gates. When that static head is the dead head itself (or the member
  // suspects it too), go straight to the sink; a give-up on the static-
  // head leg escalates to the sink per report.
  wsn::NodeId target = static_head_of(head);
  if (target == head || network_.suspects(member_id, target)) {
    target = sink_node_;
  }
  SID_TRACE(&network_.tracer(), obs::Category::kCluster, "head_fallback", t,
            {{"member", member_id},
             {"dead_head", head},
             {"target", target},
             {"reports", buffered.size()}});
  for (auto report : buffered) {
    report.fallback = true;
    counters_.fallback_reports.add(1);
    wsn::Message msg;
    msg.src = member_id;
    msg.dst = target;
    msg.payload = report;
    const wsn::NodeId first_target = target;
    reliable_.send(msg, [this, member_id, report, first_target](
                            wsn::ReliableOutcome outcome, double t2) {
      loop_checker_.check();
      if (outcome == wsn::ReliableOutcome::kAcked) return;
      if (first_target == sink_node_) return;  // explicit loss, surfaced
      if (!network_.can_execute(member_id, t2)) return;
      // The static head is unreachable as well: last resort, the sink
      // runs the fallback evaluation itself.
      wsn::Message retry;
      retry.src = member_id;
      retry.dst = sink_node_;
      retry.payload = report;
      reliable_.send(std::move(retry));
    });
  }
}

void SidSystem::on_alarm(wsn::NodeId node, const wsn::DetectionReport& report,
                         double t) {
  counters_.alarms_raised.add(1);
  SID_TRACE(&network_.tracer(), obs::Category::kNode, "alarm", t,
            {{"node", node},
             {"freq_hz", report.anomaly_frequency},
             {"avg_energy", report.average_energy}});
  if (report.trace_id != 0) {
    // Chain anchor: every span carrying this id descends from here.
    SID_SPAN(&network_.tracer(), obs::Category::kNode, "span_origin", t, 0.0,
             report.trace_id, {{"kind", "report"}, {"node", node}});
  }
  MemberState& member = members_[node];

  // Expire stale membership.
  if (member.head && t > member.membership_expires_s) {
    member.head.reset();
  }

  if (member.head && *member.head != node) {
    // Already in someone's temporary cluster: report to that head
    // (reliably — the ack-or-give-up loop replaces silent loss).
    submit_report(node, *member.head, report);
    return;
  }

  if (heads_.contains(node)) {
    // Already heading a cluster: record our own repeat detection.
    heads_[node].reports.push_back(report);
    return;
  }

  // Become a temporary cluster head (Algorithm SID, SetUpTempCluster).
  counters_.clusters_formed.add(1);
  const double deadline = t + config_.cluster.collection_window_s;
  SID_TRACE(&network_.tracer(), obs::Category::kCluster, "cluster_formed", t,
            {{"head", node}, {"deadline_s", deadline}});
  HeadState state;
  state.reports.push_back(report);
  state.deadline_s = deadline;
  heads_.emplace(node, std::move(state));
  member.head = node;
  member.membership_expires_s = deadline;

  wsn::ClusterInvite invite;
  invite.head = node;
  invite.initiated_local_time_s = network_.local_time(node, t);
  invite.hops_remaining = static_cast<std::int32_t>(kInviteHops);
  wsn::Message msg;
  msg.src = node;
  msg.dst = wsn::kSinkId;  // flood: dst unused
  msg.payload = invite;
  network_.flood(msg, kInviteHops);

  network_.events().schedule_at(deadline, [this, node] {
    loop_checker_.check();
    evaluate_head(node);
  });
}

void SidSystem::accept_at_sink(const wsn::ClusterDecision& decision,
                               double t) {
  // Sink fusion input: the decision feeds the vessel tracker, whose state
  // persists across the whole run.
  SID_DCHECK(std::isfinite(decision.correlation) &&
                 std::isfinite(decision.estimated_speed_mps) &&
                 std::isfinite(decision.estimated_position.x) &&
                 std::isfinite(decision.estimated_position.y),
             "accept_at_sink: non-finite field in decision from head ",
             decision.head);
  // Wraparound-safe dedup per originating head: retransmissions and
  // multi-path copies (head -> static head -> sink racing head -> sink)
  // collapse to one accepted decision.
  auto window = sink_windows_.find(decision.head);
  if (window == sink_windows_.end()) {
    window = sink_windows_
                 .emplace(decision.head,
                          wsn::SequenceWindow{
                              config_.resilience.e2e.dedup_span})
                 .first;
  }
  if (!window->second.accept(decision.seq)) {
    counters_.duplicates_suppressed.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kSink, "sink_duplicate", t,
              {{"seq", decision.seq}, {"head", decision.head}});
    return;
  }
  double latency_s = -1.0;  // unknown: creation record not at this sink
  if (const auto created = decision_created_s_.find(decision_key(decision));
      created != decision_created_s_.end()) {
    latency_s = t - created->second;
    counters_.decision_latency_s.record(latency_s);
  }
  SID_TRACE(&network_.tracer(), obs::Category::kSink, "sink_decision", t,
            {{"seq", decision.seq},
             {"head", decision.head},
             {"intrusion", decision.intrusion},
             {"correlation", decision.correlation},
             {"speed_mps", decision.estimated_speed_mps}});
  if (decision.trace_id != 0) {
    // Chain terminal: the hop/wait spans carrying this id tile
    // [span_origin.t, here], so their durations sum to latency_s.
    SID_SPAN(&network_.tracer(), obs::Category::kSink, "span_sink", t, 0.0,
             decision.trace_id,
             {{"head", decision.head},
              {"seq", decision.seq},
              {"latency_s", latency_s}});
  }
  result_.sink_reports.push_back(SinkReport{decision, t});
  if (decision.intrusion) {
    TrackObservation observation;
    observation.time_s = t;
    observation.position = decision.estimated_position;
    if (decision.estimated_speed_mps > 0.0) {
      observation.speed_mps = decision.estimated_speed_mps;
      observation.heading_rad = decision.estimated_heading_rad;
    }
    tracker_.observe(observation);
    // Accel lane of the multi-modal fuser: intrusion decisions only, with
    // the cluster correlation as the modality confidence. With acoustic
    // fusion disabled the fuser is pure bookkeeping (no events, no RNG),
    // so accel-only runs stay bit-identical.
    for (const FusedTrackDecision& fused :
         fuser_.ingest(Modality::kAccel, t,
                       std::clamp(decision.correlation, 0.0, 1.0),
                       decision.trace_id)) {
      emit_fused(fused, t);
    }
  }
}

void SidSystem::submit_contact(wsn::NodeId node,
                               wsn::AcousticContactReport contact, double t) {
  counters_.acoustic_contacts_sent.add(1);
  SID_TRACE(&network_.tracer(), obs::Category::kNode, "contact", t,
            {{"node", node},
             {"seq", contact.seq},
             {"snr_db", contact.snr_db}});
  if (contact.trace_id != 0) {
    // Chain anchor for the acoustic modality (SpanKind::kAcousticContact).
    SID_SPAN(&network_.tracer(), obs::Category::kNode, "span_origin", t, 0.0,
             contact.trace_id, {{"kind", "acoustic"}, {"node", node}});
    contact_created_s_.emplace(contact_key(contact), t);
  }
  contact.contact_local_time_s = network_.local_time(node, t);
  wsn::Message msg;
  msg.src = node;
  msg.dst = sink_node_;
  msg.payload = contact;
  reliable_.send(std::move(msg));
}

void SidSystem::accept_acoustic_at_sink(
    const wsn::AcousticContactReport& contact, double t) {
  SID_DCHECK(std::isfinite(contact.snr_db),
             "accept_acoustic_at_sink: non-finite SNR from reporter ",
             contact.reporter);
  // Per-reporter wraparound-safe dedup, mirroring the decision windows
  // (the two payload classes have independent sequence streams).
  auto window = acoustic_windows_.find(contact.reporter);
  if (window == acoustic_windows_.end()) {
    window = acoustic_windows_
                 .emplace(contact.reporter,
                          wsn::SequenceWindow{
                              config_.resilience.e2e.dedup_span})
                 .first;
  }
  if (!window->second.accept(contact.seq)) {
    counters_.acoustic_duplicates.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kSink, "contact_duplicate",
              t, {{"seq", contact.seq}, {"reporter", contact.reporter}});
    return;
  }
  counters_.acoustic_contacts_accepted.add(1);
  double latency_s = -1.0;  // unknown: submission record not at this sink
  if (const auto created = contact_created_s_.find(contact_key(contact));
      created != contact_created_s_.end()) {
    latency_s = t - created->second;
  }
  SID_TRACE(&network_.tracer(), obs::Category::kSink, "sink_contact", t,
            {{"reporter", contact.reporter},
             {"seq", contact.seq},
             {"snr_db", contact.snr_db}});
  if (contact.trace_id != 0) {
    // Chain terminal for the acoustic modality: hop/wait spans carrying
    // this id tile [span_origin.t, here], same contract as decisions.
    SID_SPAN(&network_.tracer(), obs::Category::kSink, "span_sink", t, 0.0,
             contact.trace_id,
             {{"reporter", contact.reporter},
              {"seq", contact.seq},
              {"latency_s", latency_s}});
  }
  result_.acoustic_contacts.push_back(contact);
  for (const FusedTrackDecision& fused :
       fuser_.ingest(Modality::kAcoustic, t,
                     contact_confidence(contact.snr_db), contact.trace_id)) {
    emit_fused(fused, t);
  }
}

void SidSystem::emit_fused(const FusedTrackDecision& fused, double t) {
  counters_.fused_detections.add(1);
  [[maybe_unused]] const std::uint64_t id = obs::derive_trace_id(
      config_.network.seed, sink_node_, next_fused_index_++,
      obs::SpanKind::kFused);
  SID_TRACE(&network_.tracer(), obs::Category::kSink, "sink_fused", t,
            {{"confidence", fused.confidence},
             {"has_accel", fused.has_accel},
             {"has_acoustic", fused.has_acoustic}});
  // The fused chain is born and dies at the sink: span_origin plus one
  // span_fuse cross-link per contributing modality chain, no span_sink
  // (there is no transport leg whose latency a sink record would attest).
  SID_SPAN(&network_.tracer(), obs::Category::kSink, "span_origin", t, 0.0,
           id, {{"kind", "fused"}, {"node", sink_node_}});
  if (fused.accel_trace_id != 0) {
    SID_SPAN(&network_.tracer(), obs::Category::kSink, "span_fuse", t, 0.0,
             id,
             {{"report_id", obs::span_id_hex(fused.accel_trace_id)},
              {"modality", "accel"}});
  }
  if (fused.acoustic_trace_id != 0) {
    SID_SPAN(&network_.tracer(), obs::Category::kSink, "span_fuse", t, 0.0,
             id,
             {{"report_id", obs::span_id_hex(fused.acoustic_trace_id)},
              {"modality", "acoustic"}});
  }
  result_.fused.push_back(fused);
}

void SidSystem::send_decision(wsn::NodeId from, wsn::NodeId dst,
                              const wsn::ClusterDecision& decision) {
  wsn::Message msg;
  msg.src = from;
  msg.dst = dst;
  msg.payload = decision;
  reliable_.send(std::move(msg), [this, from, dst, decision](
                                     wsn::ReliableOutcome outcome, double t) {
    loop_checker_.check();
    if (outcome == wsn::ReliableOutcome::kAcked) return;
    if (dst != sink_node_ && network_.can_execute(from, t)) {
      // The static-head relay leg exhausted its retry budget (dead relay
      // target or persistent partition): re-target the sink directly.
      counters_.decision_retries.add(1);
      SID_TRACE(&network_.tracer(), obs::Category::kCluster,
                "decision_retry", t,
                {{"from", from},
                 {"next_dst", sink_node_},
                 {"seq", decision.seq}});
      send_decision(from, sink_node_, decision);
      return;
    }
    // Final give-up: surfaced explicitly, never a silent hang.
    counters_.decisions_lost.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kCluster, "decision_lost",
              t, {{"from", from}, {"seq", decision.seq}});
  });
}

void SidSystem::on_deliver(wsn::NodeId receiver, const wsn::Message& msg,
                           double t) {
  // Transport tap first: acks terminate here, reliable data is acked and
  // deduped, duplicates never reach the protocol twice.
  if (!reliable_.on_deliver(receiver, msg, t)) return;

  if (std::get_if<wsn::LivenessProbe>(&msg.payload) != nullptr) {
    return;  // the transport ack already answered the probe
  }

  if (const auto* invite = std::get_if<wsn::ClusterInvite>(&msg.payload)) {
    MemberState& member = members_[receiver];
    if (heads_.contains(receiver)) return;  // heads ignore invites
    if (member.head && t <= member.membership_expires_s) return;
    member.head = invite->head;
    member.membership_expires_s =
        t + config_.cluster.collection_window_s;
    // A node that alarmed before any cluster existed forwards its pending
    // report now.
    if (member.pending_report) {
      const wsn::DetectionReport pending = *member.pending_report;
      member.pending_report.reset();
      submit_report(receiver, invite->head, pending);
    }
    return;
  }

  if (const auto* report = std::get_if<wsn::DetectionReport>(&msg.payload)) {
    if (report->fallback) {
      // Static-head fallback: collect orphan reports and evaluate them
      // after a bounded window.
      FallbackState& state = fallbacks_[receiver];
      state.reports.push_back(*report);
      if (!state.scheduled) {
        state.scheduled = true;
        network_.events().schedule_after(kFallbackWindowS, [this, receiver] {
          loop_checker_.check();
          evaluate_fallback(receiver);
        });
      }
      return;
    }
    auto it = heads_.find(receiver);
    if (it == heads_.end() || it->second.evaluated) return;
    it->second.reports.push_back(*report);
    return;
  }

  if (const auto* contact =
          std::get_if<wsn::AcousticContactReport>(&msg.payload)) {
    // Contacts are addressed straight at the sink; anything else (a
    // misrouted or forged copy at a non-sink node) is dropped here.
    if (receiver == sink_node_) accept_acoustic_at_sink(*contact, t);
    return;
  }

  if (const auto* decision = std::get_if<wsn::ClusterDecision>(&msg.payload)) {
    if (receiver == sink_node_) {
      accept_at_sink(*decision, t);
    } else {
      // Static cluster head relays to the sink (reliably; the sink's
      // per-head window suppresses any multi-path duplicate).
      send_decision(receiver, sink_node_, *decision);
    }
    return;
  }
}

wsn::ClusterDecision SidSystem::make_decision(
    wsn::NodeId head, const ClusterDecisionResult& verdict,
    std::span<const wsn::DetectionReport> reports, double now) {
  wsn::ClusterDecision decision;
  decision.head = head;
  // Per-head sequence numbers: no global coordination between heads
  // (which a distributed field could not provide); the sink dedups per
  // (head, seq) through a wraparound-safe window.
  decision.seq = next_decision_seq_[head]++;
  decision.correlation = verdict.correlation.c;
  decision.sweep_consistency = verdict.sweep_consistency;
  decision.report_count = verdict.reports_used;
  decision.intrusion = verdict.intrusion;
  if (verdict.speed) {
    decision.estimated_speed_mps = verdict.speed->speed_mps;
    decision.estimated_heading_rad = verdict.speed->heading_rad;
  }
  if (const auto observation = to_observation(verdict, reports, now)) {
    decision.estimated_position = observation->position;
  }
  decision.decision_local_time_s = network_.local_time(head, now);
  decision.trace_id = obs::derive_trace_id(config_.network.seed, head,
                                           decision.seq,
                                           obs::SpanKind::kDecision);
  counters_.decisions_sent.add(1);
  decision_created_s_.emplace(decision_key(decision), now);
  SID_SPAN(&network_.tracer(), obs::Category::kCluster, "span_origin", now,
           0.0, decision.trace_id,
           {{"kind", "decision"}, {"head", head}, {"seq", decision.seq}});
  for (const auto& report : reports) {
    if (report.trace_id == 0) continue;
    // Cross-link the decision chain to each contributing report chain.
    SID_SPAN(&network_.tracer(), obs::Category::kCluster, "span_fuse", now,
             0.0, decision.trace_id,
             {{"report_id", obs::span_id_hex(report.trace_id)},
              {"reporter", report.reporter}});
  }
  return decision;
}

void SidSystem::evaluate_head(wsn::NodeId head) {
  auto it = heads_.find(head);
  if (it == heads_.end() || it->second.evaluated) return;
  it->second.evaluated = true;
  const double now = network_.events().now();

  // The collection-window timer runs *on* the head: a head that died
  // mid-window evaluates nothing (dead code does not run). Its members'
  // probes will fail and they fall back to the static head.
  if (!network_.can_execute(head, now)) {
    counters_.clusters_abandoned.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kCluster,
              "cluster_abandoned", now, {{"head", head}});
    members_[head].head.reset();
    return;
  }

  const ClusterDecisionResult verdict =
      evaluator_.evaluate(it->second.reports);
  if (verdict.cancelled) {
    counters_.clusters_cancelled.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kCluster,
              "cluster_cancelled", now,
              {{"head", head}, {"reports", it->second.reports.size()}});
    members_[head].head.reset();
    return;
  }

  const wsn::ClusterDecision decision =
      make_decision(head, verdict, it->second.reports, now);
  SID_TRACE(&network_.tracer(), obs::Category::kCluster, "cluster_decision",
            now,
            {{"head", head},
             {"seq", decision.seq},
             {"intrusion", decision.intrusion},
             {"correlation", decision.correlation},
             {"reports", decision.report_count}});
  // Forwarding target: the static head, unless it is this head itself or
  // the head's own table suspects it dead (suspicion-driven re-election;
  // a kGaveUp on this leg re-targets the sink anyway).
  wsn::NodeId target = static_head_of(head);
  if (target == head || network_.suspects(head, target)) {
    target = sink_node_;
  }
  send_decision(head, target, decision);
  members_[head].head.reset();
}

void SidSystem::evaluate_fallback(wsn::NodeId head) {
  auto it = fallbacks_.find(head);
  if (it == fallbacks_.end()) return;
  const std::vector<wsn::DetectionReport> reports =
      std::move(it->second.reports);
  fallbacks_.erase(it);
  const double now = network_.events().now();
  // The fallback timer runs on the fallback head itself.
  if (!network_.can_execute(head, now)) return;

  const ClusterDecisionResult verdict = evaluator_.evaluate(reports);
  if (verdict.cancelled) {
    counters_.clusters_cancelled.add(1);
    SID_TRACE(&network_.tracer(), obs::Category::kCluster,
              "cluster_cancelled", now,
              {{"head", head}, {"reports", reports.size()}, {"fallback", true}});
    return;
  }

  const wsn::ClusterDecision decision =
      make_decision(head, verdict, reports, now);
  counters_.fallback_decisions.add(1);
  SID_TRACE(&network_.tracer(), obs::Category::kCluster, "fallback_decision",
            now,
            {{"head", head},
             {"seq", decision.seq},
             {"intrusion", decision.intrusion},
             {"correlation", decision.correlation}});
  if (head == sink_node_) {
    // The sink itself pooled the orphans: accept locally, no radio leg.
    accept_at_sink(decision, now);
    return;
  }
  send_decision(head, sink_node_, decision);
}

SystemResult SidSystem::run(std::span<const wake::ShipTrackConfig> ships) {
  // run() and every event/transport callback execute on one thread; the
  // checker binds to it here and the capability analysis takes it from
  // this assertion (DESIGN.md §5i).
  loop_checker_.check();
  result_ = SystemResult{};
  counters_.reset();
  heads_.clear();
  fallbacks_.clear();
  reliable_.reset();
  sink_windows_.clear();
  acoustic_windows_.clear();
  quarantined_hydrophones_.clear();
  next_fused_index_ = 0;
  fuser_.reset(config_.scenario.trace.start_time_s);
  decision_created_s_.clear();
  contact_created_s_.clear();
  next_decision_seq_.clear();
  members_.assign(network_.node_count(), MemberState{});
  tracker_ = Tracker();

  const ScenarioRun front_end =
      simulate_node_reports(network_, ships, config_.scenario);
  std::uint64_t samples = 0;
  for (const auto& node_run : front_end.node_runs) samples += node_run.samples;
  counters_.samples_synthesized.add(samples);
  counters_.samples_processed.add(samples);

  // Beacon processes run for the sensing window plus slack, so retries
  // and fallback evaluations late in the run still see fresh liveness
  // state (no-op in oracle routing mode).
  const double horizon_s = config_.scenario.trace.start_time_s +
                           config_.scenario.trace.duration_s +
                           config_.resilience.beacon_horizon_slack_s;
  network_.start_beacons(horizon_s);
  // Adversarial processes (no-op with an empty AttackPlan) share the
  // beacon horizon so attacks can span the whole sensing window.
  network_.start_adversary(horizon_s);

  // Telemetry ticks: scheduled up front (bounded by the horizon; a
  // self-rescheduling tick would keep run_events() alive forever). The
  // SID_TELEMETRY_SAMPLE body compiles away in the metrics-off build but
  // the events are still scheduled, so both configurations insert the
  // same event sequence and tie-break the queue identically.
  if (telemetry_) {
    telemetry_->clear();
    const double interval = telemetry_->config().interval_s;
    for (std::uint64_t k = 1;
         static_cast<double>(k) * interval <= horizon_s; ++k) {
      const double tick = static_cast<double>(k) * interval;
      network_.events().schedule_at(tick, [this, tick] {
        loop_checker_.check();
        SID_TELEMETRY_SAMPLE(telemetry_.get(), tick);
      });
    }
  }

  // Schedule every alarm as a protocol event at its trigger time. A node
  // that is dead or depleted when the alarm would fire stays silent.
  for (const auto& node_run : front_end.node_runs) {
    for (std::size_t i = 0; i < node_run.alarms.size(); ++i) {
      const double t = node_run.alarms[i].trigger_time_s;
      const wsn::NodeId node = node_run.node;
      const wsn::DetectionReport report = node_run.reports[i];
      network_.events().schedule_at(
          t, [this, node, report] {
            loop_checker_.check();
            const double now = network_.events().now();
            if (!network_.can_execute(node, now)) return;
            on_alarm(node, report, now);
          });
    }
    // Thinned acoustic contact submissions (kMinContactIntervalS): the
    // hydrophone fires every integration period during a sustained pass,
    // and reporting every look would flood the radio — and trip the sink
    // ledger's contact-rate plausibility window. Contacts at least the
    // interval apart number at most window / interval + 1 inside any
    // closed window; the rest of the limit absorbs delivery jitter. Sent
    // contacts are re-sequenced 0, 1, ... so the sink's per-reporter
    // dedup window sees a dense stream.
    static_assert(wsn::kAcousticRateWindowS / kMinContactIntervalS + 1.0 <=
                      static_cast<double>(wsn::kAcousticRateLimit),
                  "thinning must keep an honest hydrophone under the sink "
                  "ledger's acoustic rate limit");
    if (!node_run.contacts.empty()) {
      double last_sent = -std::numeric_limits<double>::infinity();
      std::uint32_t sent_seq = 0;
      for (const auto& contact : node_run.contacts) {
        if (contact.time_s - last_sent < kMinContactIntervalS) continue;
        last_sent = contact.time_s;
        wsn::AcousticContactReport report;
        report.reporter = node_run.node;
        report.seq = sent_seq++;
        report.position = network_.node(node_run.node).anchor;
        report.snr_db = contact.snr_db;
        report.trace_id = obs::derive_trace_id(
            config_.scenario.seed, node_run.node, report.seq,
            obs::SpanKind::kAcousticContact);
        const wsn::NodeId node = node_run.node;
        network_.events().schedule_at(contact.time_s, [this, node, report] {
          loop_checker_.check();
          const double now = network_.events().now();
          if (!network_.can_execute(node, now)) return;
          submit_contact(node, report, now);
        });
      }
    }
    // Sensing energy for the node's active portion of the run (a crashed
    // node stops sampling at its crash time).
    auto& meter = network_.node(node_run.node).energy;
    double active_s = config_.scenario.trace.duration_s;
    if (const auto crash = network_.faults().crash_time(node_run.node)) {
      active_s = std::clamp(*crash - config_.scenario.trace.start_time_s,
                            0.0, active_s);
    }
    meter.spend_samples(static_cast<std::size_t>(
        active_s * config_.scenario.trace.sample_rate_hz));
  }

  // The windowed engine drives the beacon lanes and the global queue
  // together (DESIGN.md §5l).
  network_.run_events();

  // Detection outcomes against ground truth (observability only): each
  // alarm either matches a wake arrival or is spurious; each arrival with
  // no matching alarm at that node was missed.
  for (std::size_t i = 0; i < front_end.node_runs.size(); ++i) {
    const auto& node_run = front_end.node_runs[i];
    const auto& truth = front_end.truths[i];
    for (const auto& alarm : node_run.alarms) {
      if (alarm_matches_truth(alarm, truth.wake_arrivals,
                              kDetectionMatchToleranceS)) {
        counters_.true_alarms.add(1);
      } else {
        counters_.false_alarms.add(1);
      }
    }
    for (const double arrival : truth.wake_arrivals) {
      const bool detected = std::any_of(
          node_run.alarms.begin(), node_run.alarms.end(),
          [&](const Alarm& alarm) {
            return alarm_matches_truth(alarm, std::span(&arrival, 1),
                                       kDetectionMatchToleranceS);
          });
      if (!detected) counters_.missed_wakes.add(1);
    }
  }

  // SystemResult fields are snapshots of the registry counters.
  result_.alarms_raised = counters_.alarms_raised.value();
  result_.clusters_formed = counters_.clusters_formed.value();
  result_.clusters_cancelled = counters_.clusters_cancelled.value();
  result_.clusters_abandoned = counters_.clusters_abandoned.value();
  result_.decisions_sent = counters_.decisions_sent.value();
  result_.decision_retries = counters_.decision_retries.value();
  result_.decisions_lost = counters_.decisions_lost.value();
  result_.fallback_reports = counters_.fallback_reports.value();
  result_.fallback_decisions = counters_.fallback_decisions.value();
  result_.duplicates_suppressed = counters_.duplicates_suppressed.value();
  result_.acoustic_contacts_sent = counters_.acoustic_contacts_sent.value();
  result_.acoustic_contacts_accepted =
      counters_.acoustic_contacts_accepted.value();
  result_.acoustic_duplicates_suppressed =
      counters_.acoustic_duplicates.value();
  result_.fused_detections = counters_.fused_detections.value();

  result_.network_stats = network_.stats();
  for (const auto& info : network_.nodes()) {
    result_.total_energy_mj += info.energy.spent_mj();
  }
  registry().gauge("energy.total_mj").set(result_.total_energy_mj);
  registry().gauge("sim.events_executed")
      .set(static_cast<double>(network_.events_executed_total()));
  result_.tracks = tracker_.active_tracks();
  result_.tracks.insert(result_.tracks.end(),
                        tracker_.retired_tracks().begin(),
                        tracker_.retired_tracks().end());
  return result_;
}

}  // namespace sid::core
