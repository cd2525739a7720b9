// core/fusion regressions for the sink's MultiModalFuser, pinned against
// the named constants in fusion.h: the association, dedup and stale
// windows are CLOSED at their edges, kAnd needs a cross-modal partner
// while both lanes are live, OR lets either modality stand alone,
// repeated pairs of one cause fuse once, both lanes down is silent, and
// kAnd degrades to OR over the survivor the moment exactly one modality
// goes down — in that order, never the reverse (a lone survivor must not
// be silenced while its partner is merely quarantined).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/fusion.h"

namespace sid::core {

// Names the parameterized cases after the quarantined lane.
void PrintTo(Modality modality, std::ostream* os) {
  *os << (modality == Modality::kAccel ? "Accel" : "Acoustic");
}

namespace {

MultiModalConfig or_config() {
  MultiModalConfig cfg;
  cfg.policy = FusionPolicy::kOr;
  return cfg;
}

TEST(MultiModalFuserTest, AndAssociatesExactlyAtTheClosedWindowEdge) {
  MultiModalFuser fuser;
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, 100.0, 1.0, 7).empty());
  // Partner exactly kAssociationWindowS later: the pair completes.
  const double edge = 100.0 + kAssociationWindowS;
  const auto fused = fuser.ingest(Modality::kAcoustic, edge, 1.0, 9);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_TRUE(fused[0].has_accel);
  EXPECT_TRUE(fused[0].has_acoustic);
  EXPECT_EQ(fused[0].accel_trace_id, 7u);
  EXPECT_EQ(fused[0].acoustic_trace_id, 9u);
  EXPECT_DOUBLE_EQ(fused[0].time_s, edge);
  // The weighted sum is clamped to the [0, 1] confidence range.
  EXPECT_DOUBLE_EQ(fused[0].confidence,
                   std::min(1.0, kAccelWeight + kAcousticWeight));
}

TEST(MultiModalFuserTest, AndRejectsStrictlyBeyondTheWindow) {
  MultiModalFuser fuser;
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, 100.0, 1.0).empty());
  EXPECT_TRUE(
      fuser.ingest(Modality::kAcoustic, 100.0 + kAssociationWindowS + 1e-6,
                   1.0)
          .empty());
}

TEST(MultiModalFuserTest, DedupWindowSuppressesAtTheClosedEdge) {
  MultiModalFuser fuser(or_config());
  ASSERT_EQ(fuser.ingest(Modality::kAccel, 100.0, 1.0).size(), 1u);
  // Exactly kDedupWindowS later: suppressed (closed interval).
  EXPECT_TRUE(
      fuser.ingest(Modality::kAccel, 100.0 + kDedupWindowS, 1.0).empty());
  // Strictly beyond the first emission's window: a new fused decision.
  EXPECT_EQ(
      fuser.ingest(Modality::kAccel, 100.0 + kDedupWindowS + 1e-6, 1.0)
          .size(),
      1u);
}

TEST(MultiModalFuserTest, OrLetsEitherModalityStandAlone) {
  MultiModalFuser fuser(or_config());
  const auto accel = fuser.ingest(Modality::kAccel, 100.0, 0.8);
  ASSERT_EQ(accel.size(), 1u);
  EXPECT_TRUE(accel[0].has_accel);
  EXPECT_FALSE(accel[0].has_acoustic);
  EXPECT_DOUBLE_EQ(accel[0].confidence, kAccelWeight * 0.8);
  // An acoustic event with no accel partner anywhere near it stands
  // alone under OR, weighted by its own modality only.
  const auto acoustic = fuser.ingest(Modality::kAcoustic, 400.0, 0.8);
  ASSERT_EQ(acoustic.size(), 1u);
  EXPECT_FALSE(acoustic[0].has_accel);
  EXPECT_TRUE(acoustic[0].has_acoustic);
  EXPECT_DOUBLE_EQ(acoustic[0].confidence, kAcousticWeight * 0.8);
}

TEST(MultiModalFuserTest, RepeatedPairsInsideTheDedupWindowEmitOnce) {
  // One ship pass: accel and acoustic evidence interleaved over 14 s.
  // Every event from the first accel one on completes a pair, but only
  // that first pair emits: the rest fall inside its dedup window.
  MultiModalFuser fuser;
  std::size_t emitted = 0;
  emitted += fuser.ingest(Modality::kAcoustic, 98.0, 1.0).size();
  emitted += fuser.ingest(Modality::kAccel, 100.0, 1.0).size();
  EXPECT_EQ(emitted, 1u);
  emitted += fuser.ingest(Modality::kAcoustic, 102.0, 1.0).size();
  emitted += fuser.ingest(Modality::kAccel, 104.0, 1.0).size();
  emitted += fuser.ingest(Modality::kAcoustic, 112.0, 1.0).size();
  static_assert(112.0 - 100.0 <= kDedupWindowS);
  EXPECT_EQ(emitted, 1u);
}

TEST(MultiModalFuserTest, BothModalitiesDownIsSilent) {
  MultiModalFuser fuser;
  fuser.quarantine(Modality::kAccel);
  fuser.quarantine(Modality::kAcoustic);
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, 10.0, 1.0).empty());
  EXPECT_TRUE(fuser.ingest(Modality::kAcoustic, 11.0, 1.0).empty());
  EXPECT_FALSE(fuser.degraded(11.0));  // both down is not "degraded"
}

// Parameterized over the quarantined lane; the other lane survives.
class MultiModalFuserQuarantineTest
    : public ::testing::TestWithParam<Modality> {
 protected:
  Modality quarantined() const { return GetParam(); }
  Modality survivor() const {
    return GetParam() == Modality::kAccel ? Modality::kAcoustic
                                          : Modality::kAccel;
  }
  double survivor_weight() const {
    return survivor() == Modality::kAccel ? kAccelWeight : kAcousticWeight;
  }
};

TEST_P(MultiModalFuserQuarantineTest, QuarantineDegradesAndToSurvivorOr) {
  MultiModalFuser fuser;
  // Healthy, both lanes live: a lone survivor event emits nothing under
  // kAnd.
  EXPECT_TRUE(fuser.ingest(survivor(), 10.0, 1.0).empty());
  EXPECT_FALSE(fuser.degraded(10.0));

  // Quarantining the other lane flips the ladder rung: degradation FIRST,
  // so the very next survivor event already stands alone (the ordering
  // under test — a quarantine must never silence the surviving modality).
  fuser.quarantine(quarantined());
  EXPECT_TRUE(fuser.degraded(50.0));
  const auto fused = fuser.ingest(survivor(), 50.0, 1.0, 21);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].has_accel, survivor() == Modality::kAccel);
  EXPECT_EQ(fused[0].has_acoustic, survivor() == Modality::kAcoustic);
  EXPECT_EQ(fused[0].accel_trace_id,
            survivor() == Modality::kAccel ? 21u : 0u);
  EXPECT_EQ(fused[0].acoustic_trace_id,
            survivor() == Modality::kAcoustic ? 21u : 0u);
  EXPECT_DOUBLE_EQ(fused[0].confidence, survivor_weight());

  // Evidence for the quarantined lane is discarded, and a revoked
  // partner left no pending evidence to pair with.
  EXPECT_TRUE(
      fuser.ingest(quarantined(), 50.0 + kDedupWindowS + 1.0, 1.0).empty());
}

INSTANTIATE_TEST_SUITE_P(QuarantinedLane, MultiModalFuserQuarantineTest,
                         ::testing::Values(Modality::kAcoustic,
                                           Modality::kAccel));

TEST(MultiModalFuserTest, QuarantineClearsPendingPartnerEvidence) {
  MultiModalFuser fuser;
  EXPECT_TRUE(fuser.ingest(Modality::kAcoustic, 100.0, 1.0).empty());
  fuser.quarantine(Modality::kAcoustic);
  // The accel survivor emits standalone — its confidence must not borrow
  // the revoked acoustic event, and has_acoustic must be false.
  const auto fused = fuser.ingest(Modality::kAccel, 101.0, 1.0);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_FALSE(fused[0].has_acoustic);
  EXPECT_EQ(fused[0].acoustic_trace_id, 0u);
  EXPECT_DOUBLE_EQ(fused[0].confidence, kAccelWeight);
}

TEST(MultiModalFuserTest, StaleTimeoutDegradesAndIngestRevives) {
  MultiModalFuser fuser;
  fuser.reset(0.0);
  // The acoustic lane was last seen at reset (t = 0). Exactly
  // kStaleTimeoutS later it is still live (closed), so kAnd wants a
  // partner.
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, kStaleTimeoutS, 1.0).empty());
  EXPECT_FALSE(fuser.degraded(kStaleTimeoutS));
  // Strictly beyond the timeout it is stale: degraded, the accel event
  // stands alone.
  const double late = kStaleTimeoutS + 1e-6;
  const auto alone = fuser.ingest(Modality::kAccel, late, 1.0);
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_FALSE(alone[0].has_acoustic);
  EXPECT_TRUE(fuser.degraded(late));
  // Fresh acoustic evidence revives the lane. With both modalities live
  // again, kAnd demands a partner — the accel events are outside the
  // association window, so nothing fuses yet.
  const double revived = late + kAssociationWindowS + 50.0;
  EXPECT_TRUE(fuser.ingest(Modality::kAcoustic, revived, 1.0).empty());
  EXPECT_FALSE(fuser.degraded(revived));
  // A new accel event inside the window completes a cross-modal pair.
  const auto fused = fuser.ingest(Modality::kAccel, revived + 10.0, 1.0);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_TRUE(fused[0].has_accel);
  EXPECT_TRUE(fused[0].has_acoustic);
}

TEST(MultiModalFuserTest, DisabledModalityBehavesLikePermanentDegradation) {
  MultiModalConfig cfg;
  cfg.use_acoustic = false;
  MultiModalFuser fuser(cfg);
  // kAnd with no acoustic lane at all == the degraded single-modality
  // path, from the first event on.
  const auto fused = fuser.ingest(Modality::kAccel, 5.0, 1.0);
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_FALSE(fused[0].has_acoustic);
  // Acoustic evidence for a disabled lane is dropped outright.
  EXPECT_TRUE(fuser.ingest(Modality::kAcoustic, 6.0, 1.0).empty());
}

TEST(MultiModalFuserTest, MinConfidenceFloorGatesEmission) {
  MultiModalConfig cfg;
  cfg.use_acoustic = false;
  MultiModalFuser fuser(cfg);
  // Just under the floor once weighted: suppressed.
  const double below = 0.99 * kMinFusedConfidence / kAccelWeight;
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, 5.0, below).empty());
  // Exactly at the floor: emitted.
  const double at = kMinFusedConfidence / kAccelWeight;
  static_assert(kMinFusedConfidence / kAccelWeight <= 1.0);
  ASSERT_GE(kAccelWeight * at, kMinFusedConfidence);
  EXPECT_EQ(fuser.ingest(Modality::kAccel, 50.0, at).size(), 1u);
}

TEST(MultiModalFuserTest, ResetRestoresConfiguredLadderState) {
  MultiModalFuser fuser;
  fuser.quarantine(Modality::kAcoustic);
  ASSERT_EQ(fuser.ingest(Modality::kAccel, 10.0, 1.0).size(), 1u);
  fuser.reset(0.0);
  // The quarantine is lifted: both lanes live again.
  EXPECT_FALSE(fuser.degraded(10.0));
  // Emission state cleared too: an event at t=10 is not deduped against
  // the pre-reset emission, and kAnd demands a partner again.
  EXPECT_TRUE(fuser.ingest(Modality::kAccel, 10.0, 1.0).empty());
}

}  // namespace
}  // namespace sid::core
