// Tests for the adversary-resilience layer: GuardLedger plausibility
// filters (tier 1), rate-based quarantine with hysteresis and probation
// release (tier 2), watermark-commit purity (rejected messages must not
// poison the ledger's view), and Network-level attack/defense
// integration (forgery filtering, clone quarantine, beacon-spoof range
// checks, replay capture). The fuser's degradation under a quarantined
// modality is covered in fusion_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/geometry.h"
#include "wsn/defense.h"
#include "wsn/faults.h"
#include "wsn/messages.h"
#include "wsn/network.h"

namespace sid::wsn {
namespace {

// --------------------------------------------------- GuardLedger units

// A 1x6 line deployment: node i anchored at (25 i, 0), guard at node 0.
std::vector<util::Vec2> line_anchors(std::size_t n) {
  std::vector<util::Vec2> anchors;
  for (std::size_t i = 0; i < n; ++i) {
    anchors.push_back({25.0 * static_cast<double>(i), 0.0});
  }
  return anchors;
}

Message report_msg(NodeId reporter, const std::vector<util::Vec2>& anchors,
                   std::uint32_t e2e_seq) {
  DetectionReport r;
  r.reporter = reporter;
  r.position = anchors[reporter];
  r.fallback = true;
  Message msg;
  msg.src = reporter;
  msg.dst = 0;
  msg.reliable = true;
  msg.e2e_seq = e2e_seq;
  msg.payload = r;
  return msg;
}

Message decision_msg(NodeId head, NodeId src, std::uint32_t e2e_seq,
                     std::uint32_t decision_seq) {
  ClusterDecision d;
  d.head = head;
  d.seq = decision_seq;
  d.intrusion = true;
  Message msg;
  msg.src = src;
  msg.dst = 0;
  msg.reliable = true;
  msg.e2e_seq = e2e_seq;
  msg.payload = d;
  return msg;
}

class GuardLedgerTest : public ::testing::Test {
 protected:
  std::vector<util::Vec2> anchors_ = line_anchors(6);
  GuardLedger ledger_{0, DefenseConfig{}, anchors_};
};

TEST_F(GuardLedgerTest, HonestReportStreamAccepted) {
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 0), 1.0),
            IngressVerdict::kAccept);
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 1), 2.0),
            IngressVerdict::kAccept);
  // A retransmitted duplicate is plausible traffic: the defense leaves
  // it to the transport dedup window.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 1), 3.0),
            IngressVerdict::kAccept);
  EXPECT_EQ(ledger_.score(2, 3.0), 0.0);
}

TEST_F(GuardLedgerTest, BootstrapFarFromZeroRejectedWithoutAnchoring) {
  // A fabricated stream opening at 2^20 must be rejected AND must not
  // anchor the watermark there — otherwise the victim's own stream
  // (starting near zero) would be rejected as a rollback forever, which
  // is precisely the sequence-poisoning attack.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 1u << 20), 1.0),
            IngressVerdict::kSeqBootstrap);
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 0), 2.0),
            IngressVerdict::kAccept);
}

TEST_F(GuardLedgerTest, ForwardJumpBeyondHorizonRejected) {
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 0), 1.0),
            IngressVerdict::kAccept);
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, kSeqHorizon + 5), 2.0),
            IngressVerdict::kSeqJump);
  // The watermark stayed put: the honest successor is still fresh.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 1), 3.0),
            IngressVerdict::kAccept);
}

TEST_F(GuardLedgerTest, RollbackBeyondDedupSpanRejected) {
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 100), 1.0),
            IngressVerdict::kAccept);
  // 90 behind the watermark: outside the dedup span, indistinguishable
  // from a replay.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 10), 2.0),
            IngressVerdict::kSeqRollback);
  // 50 behind: an in-window late arrival, the transport's call.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, 50), 3.0),
            IngressVerdict::kAccept);
}

TEST_F(GuardLedgerTest, PositionConflictingWithAnchorRejected) {
  Message msg = report_msg(2, anchors_, 0);
  std::get<DetectionReport>(msg.payload).position =
      util::Vec2{anchors_[2].x + 5.0, anchors_[2].y};
  EXPECT_EQ(ledger_.assess(msg, 1.0), IngressVerdict::kPosition);
}

TEST_F(GuardLedgerTest, ReportIdentityMismatchRejected) {
  // Reports reach their collector directly from the reporter, so the
  // transport src must match the claimed reporter.
  Message msg = report_msg(2, anchors_, 0);
  msg.src = 1;
  EXPECT_EQ(ledger_.assess(msg, 1.0), IngressVerdict::kIdentity);
}

TEST_F(GuardLedgerTest, UnreliableReportTreatedAsImplausible) {
  Message msg = report_msg(2, anchors_, 0);
  msg.reliable = false;
  EXPECT_EQ(ledger_.assess(msg, 1.0), IngressVerdict::kSeqBootstrap);
}

TEST_F(GuardLedgerTest, RelayedDecisionAllowsForeignTransportSrc) {
  // Decisions are relayed (static head rewrites the transport src), so
  // head != src is legitimate there.
  EXPECT_EQ(ledger_.assess(decision_msg(/*head=*/3, /*src=*/1, 0, 0), 1.0),
            IngressVerdict::kAccept);
}

TEST_F(GuardLedgerTest, RejectedDecisionCommitsNeitherWatermark) {
  EXPECT_EQ(ledger_.assess(decision_msg(3, 1, 0, 0), 1.0),
            IngressVerdict::kAccept);
  // Forged decision: the transport seq (100) would pass in isolation,
  // but the per-head decision stream jumps implausibly far. The whole
  // message is rejected and NEITHER watermark may move.
  EXPECT_EQ(ledger_.assess(decision_msg(3, 1, 100, 1u << 20), 2.0),
            IngressVerdict::kSeqJump);
  // If the rejected transport seq 100 had been committed, e2e 1 would
  // now be a >=64 rollback. Purity keeps the honest stream alive.
  EXPECT_EQ(ledger_.assess(decision_msg(3, 1, 1, 1), 3.0),
            IngressVerdict::kAccept);
}

TEST_F(GuardLedgerTest, RateFloodQuarantinesWithHysteresisAndRelease) {
  std::uint32_t seq = 0;
  double t = 1.0;
  IngressVerdict v = IngressVerdict::kAccept;
  std::optional<NodeId> started;
  // Flood fresh reports once per second until the decaying score crosses
  // the threshold. Violations start at the (kRateLimit + 1)-th fresh
  // accept inside one window; at 1.5 per violation against 3.0, the
  // third violation at this pace crosses (the second decays to ~2.99).
  for (int i = 0; i < 16 && !started; ++i, t += 1.0) {
    v = ledger_.assess(report_msg(2, anchors_, seq++), t);
    started = ledger_.quarantine_started();
  }
  ASSERT_TRUE(started.has_value());
  EXPECT_EQ(*started, 2u);
  EXPECT_EQ(seq, kRateLimit + 3);
  EXPECT_EQ(v, IngressVerdict::kRate);
  EXPECT_TRUE(ledger_.quarantined(2, t));
  EXPECT_GE(ledger_.score(2, t), kQuarantineThreshold);

  // While quarantined, everything from the identity is gated.
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, seq), t + 1.0),
            IngressVerdict::kQuarantined);
  // quarantine_started() reports only FRESH triggers.
  EXPECT_FALSE(ledger_.quarantine_started().has_value());

  // Probation release: after the quarantine period the identity's
  // ordinary traffic is accepted again (score and rate window reset).
  const double release_t = t + kQuarantineS + 1.0;
  EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, seq), release_t),
            IngressVerdict::kAccept);
  EXPECT_FALSE(ledger_.quarantined(2, release_t));
  EXPECT_EQ(ledger_.score(2, release_t), 0.0);
}

TEST_F(GuardLedgerTest, SuspicionDecaysSoSpacedViolationsNeverQuarantine) {
  // One violation: kRateLimit + 1 fresh accepts inside one rate window,
  // one per second. Returns the verdict of the last.
  std::uint32_t seq = 0;
  const auto burst = [&](double t0) {
    for (std::size_t i = 0; i < kRateLimit; ++i) {
      EXPECT_EQ(ledger_.assess(report_msg(2, anchors_, seq++),
                               t0 + static_cast<double>(i)),
                IngressVerdict::kAccept);
    }
    return ledger_.assess(report_msg(2, anchors_, seq++),
                          t0 + static_cast<double>(kRateLimit));
  };
  const double t1 = 1.0 + static_cast<double>(kRateLimit);
  EXPECT_EQ(burst(1.0), IngressVerdict::kRate);
  const double s0 = ledger_.score(2, t1);
  EXPECT_GT(s0, 0.0);
  // One half-life later the score has halved.
  EXPECT_NEAR(ledger_.score(2, t1 + kScoreHalfLifeS), s0 / 2.0, 1e-9);

  // A second violation ten half-lives later starts from ~zero: isolated
  // bursts fade instead of accumulating toward quarantine.
  const double t2 = t1 + 10.0 * kScoreHalfLifeS;
  EXPECT_EQ(burst(t2), IngressVerdict::kRate);
  const double t2_end = t2 + static_cast<double>(kRateLimit);
  EXPECT_LT(ledger_.score(2, t2_end), kQuarantineThreshold);
  EXPECT_FALSE(ledger_.quarantined(2, t2_end));
}

// --------------------------------------- network-level attack/defense

NetworkConfig line_config(std::size_t cols, bool defended) {
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = cols;
  cfg.defense.enabled = defended;
  cfg.defense.guarded_nodes = {0};
  return cfg;
}

TEST(DefenseNetworkTest, SeqPoisoningForgeryFilteredOnlyWhenDefended) {
  // Attacker at the far end of a 1x6 line forges intrusion decisions
  // claiming node 2's identity with far-future sequence numbers.
  const auto run = [](bool defended) {
    NetworkConfig cfg = line_config(6, defended);
    ForgeryAttack forgery;
    forgery.attacker = 5;
    forgery.victim = 2;
    forgery.target = 0;
    forgery.traffic = ForgedTraffic::kDecisions;
    forgery.start_s = 10.0;
    forgery.end_s = 120.0;
    forgery.period_s = 5.0;
    cfg.attacks.forgeries.push_back(forgery);
    Network net(cfg);
    std::size_t forged_delivered = 0;
    net.set_delivery_handler(
        [&](NodeId receiver, const Message& msg, double) {
          const auto* d = std::get_if<ClusterDecision>(&msg.payload);
          if (receiver == 0 && d != nullptr && d->seq >= (1u << 20)) {
            ++forged_delivered;
          }
        });
    net.start_beacons(150.0);
    net.start_adversary(150.0);
    net.run_events();
    return std::pair(forged_delivered, net.stats());
  };

  const auto [defended_forged, defended_stats] = run(true);
  EXPECT_GT(defended_stats.attack_forgeries, 0u);
  EXPECT_EQ(defended_forged, 0u);
  EXPECT_GT(defended_stats.defense_filtered, 0u);
  // Tier-1 filtering must not revoke anyone: the forged stream is
  // rejected per message, never scored against the impersonated victim.
  EXPECT_EQ(defended_stats.defense_quarantines, 0u);
  EXPECT_EQ(defended_stats.defense_false_quarantines, 0u);

  const auto [undefended_forged, undefended_stats] = run(false);
  EXPECT_GT(undefended_stats.attack_forgeries, 0u);
  EXPECT_GT(undefended_forged, 0u);
  EXPECT_EQ(undefended_stats.defense_filtered, 0u);
}

TEST(DefenseNetworkTest, CloneFloodQuarantinesOnlyImplicatedIdentity) {
  // The clone host sits far from the sink so its traffic is laundered
  // through honest relays — the link-level plausibility checks pass and
  // the rate ledger has to catch it.
  NetworkConfig cfg = line_config(8, /*defended=*/true);
  CloneAttack clone;
  clone.host = 7;
  clone.cloned = 3;
  clone.target = 0;
  clone.start_s = 10.0;
  clone.end_s = 200.0;
  clone.period_s = 1.0;  // far above any honest report rate
  cfg.attacks.clones.push_back(clone);
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  std::vector<NodeId> quarantined;
  net.set_quarantine_listener(
      [&](NodeId subject, double) { quarantined.push_back(subject); });
  net.start_beacons(230.0);
  net.start_adversary(230.0);
  net.run_events();

  const auto& stats = net.stats();
  EXPECT_GT(stats.attack_clone_reports, 0u);
  ASSERT_GE(stats.defense_quarantines, 1u);
  // Ground truth: only identities the plan implicates were revoked.
  EXPECT_EQ(stats.defense_false_quarantines, 0u);
  ASSERT_FALSE(quarantined.empty());
  for (NodeId id : quarantined) EXPECT_TRUE(cfg.attacks.implicates(id));
  // The guard flooded QuarantineNotices and the field applied them: a
  // distant node's view now excludes the cloned identity.
  EXPECT_GE(stats.defense_notices, 1u);
  EXPECT_TRUE(net.quarantine_view(1, quarantined.front()));
}

TEST(DefenseNetworkTest, AttackFreeDefendedRunFiltersNothing) {
  // With no attack traffic every plausibility check passes: the defended
  // network must behave exactly like an undefended one (the bit-identity
  // side of this contract lives in determinism_test).
  NetworkConfig cfg = line_config(4, /*defended=*/true);
  Network net(cfg);
  std::size_t delivered = 0;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double) {
        if (receiver == 0 &&
            std::holds_alternative<DetectionReport>(msg.payload)) {
          ++delivered;
        }
      });
  net.start_beacons(80.0);
  net.run_events();
  for (std::uint32_t i = 0; i < 5; ++i) {
    Message msg = report_msg(2, line_anchors(4), i);
    net.unicast(msg);
  }
  net.run_events();

  const auto& stats = net.stats();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(stats.defense_filtered, 0u);
  EXPECT_EQ(stats.defense_drops, 0u);
  EXPECT_EQ(stats.defense_quarantines, 0u);
  EXPECT_EQ(stats.defense_false_quarantines, 0u);
  EXPECT_EQ(stats.defense_notices, 0u);
}

TEST(DefenseNetworkTest, SpoofedBeaconsFailTheRangeCheckWhenDefended) {
  // Node 3 crashes; node 1 then broadcasts hellos claiming to be node 3
  // (sinkhole resurrection). Listeners whose measured range conflicts
  // with node 3's deployment geometry ignore the spoof when defended.
  const auto run = [](bool defended) {
    NetworkConfig cfg = line_config(4, defended);
    cfg.faults.crashes.push_back({3, 10.0});
    BeaconSpoofAttack spoof;
    spoof.attacker = 1;
    spoof.spoofed = 3;
    spoof.start_s = 30.0;
    spoof.end_s = 120.0;
    spoof.period_s = 5.0;
    cfg.attacks.beacon_spoofs.push_back(spoof);
    Network net(cfg);
    net.set_delivery_handler([](NodeId, const Message&, double) {});
    net.start_beacons(150.0);
    net.start_adversary(150.0);
    net.run_events();
    return net.stats();
  };

  const auto defended = run(true);
  EXPECT_GT(defended.attack_beacon_spoofs, 0u);
  EXPECT_GT(defended.defense_spoofs_ignored, 0u);
  const auto undefended = run(false);
  EXPECT_GT(undefended.attack_beacon_spoofs, 0u);
  EXPECT_EQ(undefended.defense_spoofs_ignored, 0u);
}

TEST(DefenseNetworkTest, ReplayerCapturesAndReinjectsInWindowTraffic) {
  // Honest reports cross a 1x3 line during the attacker's capture
  // window; each captured message is re-injected once after the delay.
  NetworkConfig cfg = line_config(3, /*defended=*/true);
  ReplayAttack replay;
  replay.attacker = 1;
  replay.capture_start_s = 0.0;
  replay.capture_end_s = 60.0;
  replay.replay_delay_s = 10.0;
  replay.max_captures = 4;
  cfg.attacks.replays.push_back(replay);
  Network net(cfg);
  std::size_t sink_reports = 0;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double) {
        if (receiver == 0 &&
            std::holds_alternative<DetectionReport>(msg.payload)) {
          ++sink_reports;
        }
      });
  net.start_beacons(100.0);
  net.start_adversary(100.0);
  std::uint32_t seq = 0;
  for (double t : {5.0, 15.0, 25.0}) {
    net.events().schedule_at(t, [&net, seq] {
      Message msg = report_msg(2, line_anchors(3), seq);
      net.unicast(msg);
    });
    ++seq;
  }
  net.run_events();

  const auto& stats = net.stats();
  EXPECT_GT(stats.attack_replays, 0u);
  EXPECT_LE(stats.attack_replays, replay.max_captures);
  // Replays are duplicates of in-window sequence numbers: the guard's
  // per-message checks pass or reject them, but no identity is revoked
  // by a replay alone.
  EXPECT_EQ(stats.defense_quarantines, 0u);
  EXPECT_EQ(stats.defense_false_quarantines, 0u);
  EXPECT_GT(sink_reports, 0u);
}

}  // namespace
}  // namespace sid::wsn
