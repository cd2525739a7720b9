#include "wsn/defense.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <variant>

#include "util/error.h"
#include "wsn/seqnum.h"

namespace sid::wsn {

std::string_view verdict_name(IngressVerdict verdict) {
  switch (verdict) {
    case IngressVerdict::kAccept: return "accept";
    case IngressVerdict::kQuarantined: return "quarantined";
    case IngressVerdict::kSeqBootstrap: return "seq_bootstrap";
    case IngressVerdict::kSeqJump: return "seq_jump";
    case IngressVerdict::kSeqRollback: return "seq_rollback";
    case IngressVerdict::kPosition: return "position";
    case IngressVerdict::kIdentity: return "identity";
    case IngressVerdict::kRate: return "rate";
    case IngressVerdict::kAcousticImplausible: return "acoustic_implausible";
  }
  return "unknown";
}

GuardLedger::GuardLedger(NodeId guard, const DefenseConfig& config,
                         std::vector<util::Vec2> anchors)
    : guard_(guard),
      acoustic_max_snr_db_(config.acoustic_max_snr_db),
      anchors_(std::move(anchors)) {
  util::require(acoustic_max_snr_db_ > kAcousticMinSnrDb,
                "DefenseConfig: acoustic SNR ceiling must exceed the floor");
}

GuardLedger::IdentityState& GuardLedger::state(NodeId id) {
  return states_[id];
}

double GuardLedger::decayed_score(const IdentityState& s, double t) const {
  if (s.score <= 0.0) return 0.0;
  const double dt = std::max(0.0, t - s.score_t);
  return s.score * std::exp2(-dt / kScoreHalfLifeS);
}

double GuardLedger::score(NodeId id, double t) const {
  const auto it = states_.find(id);
  if (it == states_.end()) return 0.0;
  return decayed_score(it->second, t);
}

bool GuardLedger::quarantined(NodeId id, double t) const {
  const auto it = states_.find(id);
  return it != states_.end() && it->second.quarantined &&
         t < it->second.quarantine_until_s;
}

GuardLedger::StreamCheck GuardLedger::check_stream(bool seen,
                                                   std::uint32_t high,
                                                   std::uint32_t seq) const {
  StreamCheck out;
  out.seen = seen;
  out.high = high;
  if (!seen) {
    // Per-run streams start at zero; a first sighting far from it is a
    // fabricated stream, and anchoring the watermark there would be
    // exactly the poisoning the attacker wants. Reject, don't anchor.
    if (seq >= kSeqHorizon) {
      out.verdict = IngressVerdict::kSeqBootstrap;
      return out;
    }
    out.seen = true;
    out.high = seq;
    out.fresh = true;
    return out;
  }
  const std::int32_t d = seq_distance(high, seq);
  if (d > 0) {
    if (static_cast<std::uint32_t>(d) > kSeqHorizon) {
      out.verdict = IngressVerdict::kSeqJump;  // watermark stays put
      return out;
    }
    out.high = seq;
    out.fresh = true;
    return out;
  }
  if (static_cast<std::uint32_t>(-d) >= SequenceWindow::kMaxSpan) {
    out.verdict = IngressVerdict::kSeqRollback;
    return out;
  }
  // In-window duplicate or reordering: plausible retransmission; the
  // transport's dedup window decides, not the defense.
  return out;
}

bool GuardLedger::window_violation(std::vector<double>& window, double t,
                                   double window_s, std::size_t limit) const {
  window.push_back(t);
  const double horizon = t - window_s;
  window.erase(std::remove_if(window.begin(), window.end(),
                              [horizon](double v) { return v < horizon; }),
               window.end());
  return window.size() > limit;
}

void GuardLedger::add_suspicion(NodeId id, IdentityState& s, double amount,
                                double t) {
  s.score = decayed_score(s, t) + amount;
  s.score_t = t;
  SID_TRACE(tracer_, obs::Category::kDefense, "suspicion", t,
            {{"guard", guard_},
             {"subject", id},
             {"score", s.score},
             {"threshold", kQuarantineThreshold}});
  if (!s.quarantined && s.score >= kQuarantineThreshold) {
    s.quarantined = true;
    s.quarantine_until_s = t + kQuarantineS;
    quarantine_started_ = id;
    SID_TRACE(tracer_, obs::Category::kDefense, "quarantine_start", t,
              {{"guard", guard_},
               {"subject", id},
               {"until_s", s.quarantine_until_s}});
  }
}

IngressVerdict GuardLedger::report_verdict(const Message& msg,
                                           IngressVerdict verdict, double t) {
  if (verdict != IngressVerdict::kAccept) {
    // Every filtered/quarantined drop is visible in the kDefense trace
    // stream; the counters (net.defense_*) only aggregate per verdict.
    SID_TRACE(tracer_, obs::Category::kDefense, "guard_reject", t,
              {{"guard", guard_},
               {"src", msg.src},
               {"verdict", verdict_name(verdict)}});
  }
  return verdict;
}

IngressVerdict GuardLedger::assess(const Message& msg, double t) {
  return report_verdict(msg, assess_impl(msg, t), t);
}

IngressVerdict GuardLedger::assess_acoustic(const Message& msg, double t) {
  return report_verdict(msg, assess_acoustic_impl(msg, t), t);
}

bool GuardLedger::quarantine_gate(NodeId id, double t) {
  auto it = states_.find(id);
  if (it == states_.end() || !it->second.quarantined) return false;
  if (t < it->second.quarantine_until_s) return true;
  it->second.quarantined = false;
  it->second.score = 0.0;
  it->second.fresh_accepts.clear();
  it->second.acoustic_accepts.clear();
  SID_TRACE(tracer_, obs::Category::kDefense, "quarantine_release", t,
            {{"guard", guard_}, {"subject", id}});
  return false;
}

IngressVerdict GuardLedger::assess_impl(const Message& msg, double t) {
  quarantine_started_.reset();

  // The payload-level identity the message speaks for: reports carry the
  // reporter, decisions the originating head. That identity — not just
  // the (rewritten-per-relay) transport src — is what fusion/tracking
  // exclusion and rate plausibility key on.
  NodeId claimed = msg.src;
  const auto* report = std::get_if<DetectionReport>(&msg.payload);
  const auto* decision = std::get_if<ClusterDecision>(&msg.payload);
  if (report != nullptr) claimed = report->reporter;
  if (decision != nullptr) claimed = decision->head;

  // Quarantine gate first: a quarantined identity's traffic is dropped
  // whether it appears as transport source or payload identity. Expired
  // quarantines are released on the way (probation: score resets, the
  // next sustained violation re-quarantines).
  if (quarantine_gate(msg.src, t) || quarantine_gate(claimed, t)) {
    return IngressVerdict::kQuarantined;
  }

  // Identity coherence: a report reaches its collector directly from the
  // reporter (members submit to heads, fallback members to static heads),
  // so transport and payload identity must agree. Decisions are relayed
  // (head -> static head -> sink rewrites the transport src), so no such
  // check applies there.
  if (report != nullptr && report->reporter != msg.src) {
    return IngressVerdict::kIdentity;
  }

  // Position plausibility: deployment positions are assigned (§III-A),
  // so a report whose claimed position strays from the claimed
  // reporter's anchor is fabricated. Decision positions are estimates
  // (report centroids), not anchors — only sequence/rate checks apply.
  if (report != nullptr && claimed < anchors_.size()) {
    if (util::distance(report->position, anchors_[claimed]) >
        kPositionToleranceM) {
      return IngressVerdict::kPosition;
    }
  }

  // Legitimate report/decision traffic always travels over the reliable
  // transport; an unreliable one skipped the ack loop no honest node
  // skips. Treat it as a bootstrap-implausible stream.
  if (!msg.reliable) return IngressVerdict::kSeqBootstrap;

  IdentityState& src_state = state(msg.src);
  const StreamCheck transport = check_stream(
      src_state.transport_seen, src_state.transport_high, msg.e2e_seq);
  if (transport.verdict != IngressVerdict::kAccept) return transport.verdict;

  StreamCheck dec_stream;
  if (decision != nullptr) {
    const IdentityState& head_state = state(claimed);
    dec_stream = check_stream(head_state.decision_seen,
                              head_state.decision_high, decision->seq);
    if (dec_stream.verdict != IngressVerdict::kAccept) {
      return dec_stream.verdict;
    }
  }

  // Every check passed: commit the watermarks (rejected messages above
  // never touch them).
  src_state.transport_seen = transport.seen;
  src_state.transport_high = transport.high;
  if (decision != nullptr) {
    IdentityState& head_state = state(claimed);
    head_state.decision_seen = dec_stream.seen;
    head_state.decision_high = dec_stream.high;
  }

  // Tier 2: rate plausibility over fresh (watermark-advancing) accepts,
  // keyed by the payload identity. Violations both drop the message and
  // feed the decaying suspicion score; filtered messages above never get
  // here, so spoofed-and-rejected evidence cannot revoke an identity.
  if (transport.fresh || dec_stream.fresh) {
    IdentityState& id_state = state(claimed);
    if (window_violation(id_state.fresh_accepts, t, kRateWindowS,
                         kRateLimit)) {
      add_suspicion(claimed, id_state, kRateScore, t);
      return IngressVerdict::kRate;
    }
  }
  return IngressVerdict::kAccept;
}

IngressVerdict GuardLedger::assess_acoustic_impl(const Message& msg,
                                                 double t) {
  quarantine_started_.reset();

  const auto* contact = std::get_if<AcousticContactReport>(&msg.payload);
  if (contact == nullptr) return assess_impl(msg, t);
  const NodeId claimed = contact->reporter;

  if (quarantine_gate(msg.src, t) || quarantine_gate(claimed, t)) {
    return IngressVerdict::kQuarantined;
  }

  // Acoustic contacts travel reporter -> sink directly (no head
  // collection phase), so the payload and transport identities must
  // agree, exactly as for member reports.
  if (claimed != msg.src) return IngressVerdict::kIdentity;

  // Hydrophone positions are the deployment anchors too.
  if (claimed < anchors_.size() &&
      util::distance(contact->position, anchors_[claimed]) >
          kPositionToleranceM) {
    return IngressVerdict::kPosition;
  }

  // Sonar-equation plausibility: the claimed SNR must sit between the
  // hydrophone's own detection floor and the physical ceiling (loudest
  // source, minimum range, quietest ambient). A forger advertising an
  // impossibly strong contact — the natural way to force a fused alarm —
  // trips this even when its sequence discipline is perfect.
  if (!std::isfinite(contact->snr_db) ||
      contact->snr_db > acoustic_max_snr_db_ ||
      contact->snr_db < kAcousticMinSnrDb) {
    return IngressVerdict::kAcousticImplausible;
  }

  if (!msg.reliable) return IngressVerdict::kSeqBootstrap;

  IdentityState& src_state = state(msg.src);
  const StreamCheck transport = check_stream(
      src_state.transport_seen, src_state.transport_high, msg.e2e_seq);
  if (transport.verdict != IngressVerdict::kAccept) return transport.verdict;

  const StreamCheck contact_stream = check_stream(
      src_state.contact_seen, src_state.contact_high, contact->seq);
  if (contact_stream.verdict != IngressVerdict::kAccept) {
    return contact_stream.verdict;
  }

  src_state.transport_seen = transport.seen;
  src_state.transport_high = transport.high;
  src_state.contact_seen = contact_stream.seen;
  src_state.contact_high = contact_stream.high;

  // Modality-specific rate window: a hydrophone integrates over seconds,
  // so fresh contacts above the limit are a flood regardless of how well
  // each individual message passes the filters.
  if (transport.fresh || contact_stream.fresh) {
    IdentityState& id_state = state(claimed);
    if (window_violation(id_state.acoustic_accepts, t, kAcousticRateWindowS,
                         kAcousticRateLimit)) {
      add_suspicion(claimed, id_state, kRateScore, t);
      return IngressVerdict::kRate;
    }
  }
  return IngressVerdict::kAccept;
}

}  // namespace sid::wsn
