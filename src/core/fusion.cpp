#include "core/fusion.h"

#include <algorithm>
#include <cmath>

#include "obs/profile.h"
#include "util/check.h"

namespace sid::core {

MultiModalFuser::MultiModalFuser(const MultiModalConfig& config)
    : config_(config) {
  reset(0.0);
}

MultiModalFuser::Lane& MultiModalFuser::lane(Modality m) {
  return m == Modality::kAccel ? accel_ : acoustic_;
}

bool MultiModalFuser::down(const Lane& l, double t) {
  return !l.enabled || l.quarantined || t - l.last_seen > kStaleTimeoutS;
}

bool MultiModalFuser::degraded(double t) const {
  return down(accel_, t) != down(acoustic_, t);
}

void MultiModalFuser::quarantine(Modality modality) {
  Lane& l = lane(modality);
  l.quarantined = true;
  // Revoked evidence must not pair with future events of the survivor.
  l.pending.clear();
}

void MultiModalFuser::reset(double start_time_s) {
  for (Lane* l : {&accel_, &acoustic_}) {
    l->pending.clear();
    l->quarantined = false;
    l->last_seen = start_time_s;
  }
  accel_.enabled = config_.use_accel;
  acoustic_.enabled = config_.use_acoustic;
  last_emit_s_ = 0.0;
  emitted_any_ = false;
}

void MultiModalFuser::emit(std::vector<FusedTrackDecision>& out,
                           FusedTrackDecision d) {
  // An emission inside the (closed) dedup window of the previous one is
  // suppressed — an already-returned decision cannot absorb it after the
  // fact.
  if (emitted_any_ && d.time_s - last_emit_s_ <= kDedupWindowS) return;
  last_emit_s_ = d.time_s;
  emitted_any_ = true;
  out.push_back(d);
}

std::vector<FusedTrackDecision> MultiModalFuser::ingest(
    Modality modality, double t, double confidence, std::uint64_t trace_id) {
  SID_PROFILE_STAGE(obs::Stage::kFusion);
  std::vector<FusedTrackDecision> out;
  SID_DCHECK(std::isfinite(t), "MultiModalFuser: non-finite event time");
  const double conf = std::clamp(confidence, 0.0, 1.0);
  Lane& self = lane(modality);
  if (!self.enabled || self.quarantined) return out;
  // Admitted evidence revives a stale modality: it is demonstrably
  // producing again.
  self.last_seen = t;

  Lane& other = lane(modality == Modality::kAccel ? Modality::kAcoustic
                                                  : Modality::kAccel);
  // Prune partners that can no longer associate with any future event
  // (strictly older than the closed association window).
  const double cutoff = t - kAssociationWindowS;
  std::erase_if(other.pending, [&](const Pending& p) {
    return p.time < cutoff;
  });
  std::erase_if(self.pending, [&](const Pending& p) {
    return p.time < cutoff;
  });

  const double self_weight =
      modality == Modality::kAccel ? kAccelWeight : kAcousticWeight;
  const double other_weight =
      modality == Modality::kAccel ? kAcousticWeight : kAccelWeight;

  const bool standalone =
      config_.policy == FusionPolicy::kOr || down(other, t);
  if (standalone) {
    // OR, or kAnd degraded to the surviving modality.
    const double weighted = std::clamp(self_weight * conf, 0.0, 1.0);
    if (weighted >= kMinFusedConfidence) {
      FusedTrackDecision d;
      d.time_s = t;
      d.has_accel = modality == Modality::kAccel;
      d.has_acoustic = modality == Modality::kAcoustic;
      d.confidence = weighted;
      if (modality == Modality::kAccel) d.accel_trace_id = trace_id;
      if (modality == Modality::kAcoustic) d.acoustic_trace_id = trace_id;
      emit(out, d);
    }
    // Under plain OR both lanes keep pending evidence so a later partner
    // can still upgrade confidence; under degradation the partner lane is
    // down anyway and the entry ages out.
    self.pending.push_back({t, conf, trace_id});
    return out;
  }

  // kAnd with both modalities live: look for the newest partner inside
  // the closed association window.
  const Pending* best = nullptr;
  for (const Pending& p : other.pending) {
    if (std::abs(p.time - t) <= kAssociationWindowS) {
      if (!best || p.time > best->time) best = &p;
    }
  }
  if (best != nullptr) {
    const double weighted = std::clamp(
        self_weight * conf + other_weight * best->confidence, 0.0, 1.0);
    if (weighted >= kMinFusedConfidence) {
      FusedTrackDecision d;
      d.time_s = t;  // fusion completes now; emissions stay monotone
      d.has_accel = true;
      d.has_acoustic = true;
      d.confidence = weighted;
      if (modality == Modality::kAccel) {
        d.accel_trace_id = trace_id;
        d.acoustic_trace_id = best->trace_id;
      } else {
        d.accel_trace_id = best->trace_id;
        d.acoustic_trace_id = trace_id;
      }
      emit(out, d);
    }
  }
  self.pending.push_back({t, conf, trace_id});
  return out;
}

}  // namespace sid::core
