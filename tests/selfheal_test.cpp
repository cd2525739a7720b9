// Tests for the self-healing WSN substrate: RFC 1982 serial-number
// arithmetic, learned neighbor tables (beacon liveness, EWMA link
// quality, blacklist backoff), the end-to-end reliable transport, and
// the fault interactions the layer exists for (burst loss must cause
// only transient suspicion; battery death mid-multihop must surface as
// an explicit give-up, never a hang).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.h"
#include "wsn/faults.h"
#include "wsn/messages.h"
#include "wsn/neighbor.h"
#include "wsn/network.h"
#include "wsn/reliable.h"
#include "wsn/seqnum.h"

namespace sid::wsn {
namespace {

// ------------------------------------------------------------- seqnum

TEST(SeqnumTest, SerialComparisonHandlesWraparound) {
  EXPECT_LT(seq_distance(5u, 3u), 0);
  EXPECT_GT(seq_distance(3u, 5u), 0);
  EXPECT_EQ(seq_distance(7u, 7u), 0);
  // Across the 2^32 wrap: 0xFFFFFFFF is immediately "before" 0, which a
  // plain integer comparison gets exactly backwards.
  EXPECT_TRUE(seq_less(0xFFFFFFFFu, 0u));
  EXPECT_FALSE(seq_less(0u, 0xFFFFFFFFu));
  EXPECT_TRUE(seq_less(0xFFFFFFF0u, 5u));
  // Antipodal distance (exactly 2^31) is neither less nor greater; the
  // dedup window treats it conservatively as "not newer".
  EXPECT_FALSE(seq_less(0u, 0x80000000u));
  EXPECT_FALSE(seq_less(0x80000000u, 0u));
}

TEST(SeqnumTest, WindowAcceptsFreshRejectsDuplicates) {
  SequenceWindow window{16};
  EXPECT_TRUE(window.empty());
  EXPECT_TRUE(window.accept(0));
  EXPECT_FALSE(window.accept(0));
  EXPECT_TRUE(window.accept(1));
  EXPECT_TRUE(window.accept(5));
  EXPECT_TRUE(window.accept(3));  // late but inside the window
  EXPECT_FALSE(window.accept(3));
  EXPECT_FALSE(window.accept(5));
  EXPECT_EQ(window.highest(), 5u);
}

TEST(SeqnumTest, WindowSurvivesWraparound) {
  SequenceWindow window{16};
  EXPECT_TRUE(window.accept(0xFFFFFFFEu));
  EXPECT_TRUE(window.accept(0xFFFFFFFFu));
  EXPECT_TRUE(window.accept(0u));  // the ring wraps here
  EXPECT_TRUE(window.accept(1u));
  // Retransmissions from before the wrap are still remembered.
  EXPECT_FALSE(window.accept(0xFFFFFFFFu));
  EXPECT_FALSE(window.accept(0u));
  EXPECT_EQ(window.highest(), 1u);
}

TEST(SeqnumTest, WindowRejectsTooOldConservatively) {
  SequenceWindow window{16};
  EXPECT_TRUE(window.accept(100));
  // Older than the window span: a late duplicate and a replay are
  // indistinguishable, so reject.
  EXPECT_FALSE(window.accept(84));
  EXPECT_TRUE(window.accept(99));  // in-window late arrival is fine
}

TEST(SeqnumTest, LargeJumpForwardReanchorsTheWindow) {
  SequenceWindow window{16};
  EXPECT_TRUE(window.accept(10));
  EXPECT_TRUE(window.accept(500));  // far ahead: history is cleared
  EXPECT_FALSE(window.accept(500));
  EXPECT_TRUE(window.accept(499));
}

// Adversarial sequence patterns (wsn/defense threat model): the raw
// window's behavior under replayed, rolled-back and far-future inputs is
// what the GuardLedger's tier-1 filters are calibrated against.

TEST(SeqnumTest, ReplayStormRejectedAcrossWraparound) {
  // An attacker replays every captured pre-wrap seq after the stream has
  // wrapped past zero: each one must stay a remembered duplicate, and
  // rollbacks beyond the span must fail conservatively.
  SequenceWindow window{16};
  for (std::uint32_t s = 0xFFFFFFF8u; s != 4u; ++s) {
    EXPECT_TRUE(window.accept(s));
  }
  for (std::uint32_t s = 0xFFFFFFF8u; s != 4u; ++s) {
    EXPECT_FALSE(window.accept(s)) << "replayed seq " << s;
  }
  // Far behind the post-wrap watermark: outside the span, rejected.
  EXPECT_FALSE(window.accept(0xFFFFFF00u));
  EXPECT_EQ(window.highest(), 3u);
}

TEST(SeqnumTest, FarFutureInjectionPoisonsAnUndefendedWindow) {
  // The sequence-poisoning vector the defense exists for: one forged
  // far-future seq reanchors the window, and the victim's whole
  // legitimate in-flight range is then rejected as stale. This is
  // *documented* window behavior — the GuardLedger must therefore filter
  // implausible jumps BEFORE they reach a transport window.
  SequenceWindow window{64};
  EXPECT_TRUE(window.accept(5));
  EXPECT_TRUE(window.accept(1u << 20));  // forged: reanchors
  for (std::uint32_t s = 6; s < 70; ++s) {
    EXPECT_FALSE(window.accept(s)) << "victim seq " << s;
  }
}

TEST(SeqnumTest, RollbackFloodNeverMovesTheWatermark) {
  // A rollback flood (replayed stale traffic) must neither advance the
  // watermark nor evict remembered in-window history.
  SequenceWindow window{16};
  EXPECT_TRUE(window.accept(1000));
  EXPECT_TRUE(window.accept(1001));
  for (std::uint32_t s = 900; s < 916; ++s) {
    EXPECT_FALSE(window.accept(s));
  }
  EXPECT_EQ(window.highest(), 1001u);
  EXPECT_FALSE(window.accept(1001));  // history intact
  EXPECT_TRUE(window.accept(1002));   // honest successor still fresh
}

TEST(SeqnumTest, WraparoundRollbackDistanceIsSerialNotInteger) {
  // 0x00000001 is *ahead* of 0xFFFFFFFF in serial arithmetic even though
  // it is numerically tiny; a replay filter using plain integers would
  // get this backwards on every wrap.
  EXPECT_GT(seq_distance(0xFFFFFFFFu, 1u), 0);
  EXPECT_LT(seq_distance(1u, 0xFFFFFFFFu), 0);
  SequenceWindow window{16};
  EXPECT_TRUE(window.accept(0xFFFFFFFFu));
  EXPECT_TRUE(window.accept(1u));
  EXPECT_FALSE(window.accept(0xFFFFFFFFu));  // pre-wrap replay
}

// ----------------------------------------------------- neighbor tables

TEST(NeighborTableTest, BootRoundsSeedLinkQuality) {
  NeighborTable table(0);
  table.boot_neighbor(1, {true, true, true, true, true});
  table.boot_neighbor(2, {false, false, false, false, false});
  EXPECT_GT(table.quality(1), 0.8);
  EXPECT_LT(table.quality(2), 0.25);
  EXPECT_TRUE(table.usable(1, 0.0));
  EXPECT_FALSE(table.usable(2, 0.0));  // below the min_quality floor
  EXPECT_EQ(table.quality(3), 0.0);    // never heard of
  EXPECT_GT(table.etx(2), table.etx(1));
  EXPECT_TRUE(table.any_usable(0.0));
}

TEST(NeighborTableTest, BootTableEntriesMatchBootedPatterns) {
  // A field copies every slot's boot state from this table, so each entry
  // must be exactly what booted() and cost_of() make of its pattern.
  const NeighborTable::BootTable table = NeighborTable::boot_table();
  ASSERT_EQ(NeighborTable::BootTable::kPatterns, std::size_t{1} << kBootRounds);
  for (std::size_t pattern = 0; pattern < NeighborTable::BootTable::kPatterns;
       ++pattern) {
    std::vector<bool> receptions(kBootRounds);
    for (std::size_t r = 0; r < kBootRounds; ++r) {
      receptions[r] = ((pattern >> r) & 1u) != 0;
    }
    const LinkState want = NeighborTable::booted(receptions);
    const LinkCost want_cost = NeighborTable::cost_of(want);
    const LinkState& got = table.state[pattern];
    const LinkCost& got_cost = table.cost[pattern];
    EXPECT_EQ(got.slot_bits, want.slot_bits) << pattern;
    EXPECT_EQ(got.slots_observed, want.slots_observed) << pattern;
    EXPECT_EQ(got.consecutive_tx_failures, want.consecutive_tx_failures)
        << pattern;
    EXPECT_EQ(got.suspicion_streak, want.suspicion_streak) << pattern;
    EXPECT_EQ(got.heard_this_slot, want.heard_this_slot) << pattern;
    EXPECT_EQ(got.suspected, want.suspected) << pattern;
    EXPECT_EQ(got.quality, want.quality) << pattern;
    EXPECT_EQ(got.blacklist_until_s, want.blacklist_until_s) << pattern;
    EXPECT_EQ(got_cost.etx, want_cost.etx) << pattern;
    EXPECT_EQ(got_cost.blocked_until_s, want_cost.blocked_until_s)
        << pattern;
  }
  // Bit r is round r, oldest first: round 0 ends up deepest in the slot
  // window, the last round newest.
  const std::size_t last = kBootRounds - 1;
  EXPECT_EQ(table.state[1].slot_bits, 1u << last);
  EXPECT_EQ(table.state[std::size_t{1} << last].slot_bits, 1u);
}

TEST(NeighborTableTest, MissedBeaconsRaiseSuspicionThatABeaconClears) {
  NeighborTable table(0);
  table.boot_neighbor(1, {true, true, true, true, true});
  double t = 0.0;
  // Healthy phase: a beacon arrives every slot, no suspicion.
  for (int slot = 0; slot < 4; ++slot) {
    t += kBeaconPeriodS;
    table.on_beacon(1);
    EXPECT_TRUE(table.sweep(t).empty());
  }
  EXPECT_FALSE(table.suspects(1, t));
  // Silence: the K-of-N rule fires after exactly K silent slots.
  std::vector<NodeId> fresh;
  int silent_slots = 0;
  while (fresh.empty() && silent_slots < 20) {
    t += kBeaconPeriodS;
    fresh = table.sweep(t);
    ++silent_slots;
  }
  ASSERT_EQ(fresh, std::vector<NodeId>{1});
  EXPECT_EQ(silent_slots, static_cast<int>(kSuspectMissedK));
  EXPECT_TRUE(table.suspects(1, t));
  EXPECT_FALSE(table.usable(1, t));  // quarantined
  // The quarantine expires into probation: usable again without any
  // positive evidence (so an isolated node keeps trying).
  EXPECT_FALSE(table.suspects(1, t + kBlacklistBaseS + 0.1));
  EXPECT_TRUE(table.usable(1, t + kBlacklistBaseS + 0.1));
  // Direct evidence of life clears the suspicion — and reports it as
  // having been false.
  EXPECT_TRUE(table.on_beacon(1));
  EXPECT_FALSE(table.suspects(1, t + 1.0));
}

TEST(NeighborTableTest, ConsecutiveTxFailuresAreAFastSuspicionPath) {
  NeighborTable table(0);
  table.boot_neighbor(1, {true, true, true, true, true});
  EXPECT_FALSE(table.on_tx_failure(1, 10.0));  // 1 of 2
  EXPECT_TRUE(table.on_tx_failure(1, 11.0));   // threshold: fresh suspicion
  EXPECT_TRUE(table.suspects(1, 11.0));
  // A later success clears it and resets the failure streak.
  EXPECT_TRUE(table.on_tx_success(1));
  EXPECT_FALSE(table.suspects(1, 12.0));
  EXPECT_FALSE(table.on_tx_failure(1, 13.0));  // streak restarted at 0
}

TEST(NeighborTableTest, ReconfirmedSuspicionBacksOffExponentially) {
  NeighborTable table(0);
  table.boot_neighbor(1, {true, true, true, true, true});
  // First suspicion quarantines for the base interval.
  table.on_tx_failure(1, 0.0);
  EXPECT_TRUE(table.on_tx_failure(1, 1.0));
  EXPECT_TRUE(table.suspects(1, 1.0 + kBlacklistBaseS - 0.1));
  EXPECT_FALSE(table.suspects(1, 1.0 + kBlacklistBaseS + 0.1));
  // A re-confirmation after the quarantine expired doubles it (silently:
  // no fresh-suspicion report).
  const double t2 = 1.0 + kBlacklistBaseS + 1.0;
  EXPECT_FALSE(table.on_tx_failure(1, t2));
  EXPECT_TRUE(table.suspects(1, t2 + 2.0 * kBlacklistBaseS - 0.1));
  EXPECT_FALSE(table.suspects(1, t2 + 2.0 * kBlacklistBaseS + 0.1));
}

// ------------------------------------- neighbor-table reference model

// The suspicion rule restated as plainly as possible from DESIGN.md §5f
// and the constants in wsn/neighbor.h: a list of slot outcomes instead of
// a bitmask, and a doubling loop instead of a shift.
class NeighborModel {
 public:
  void boot(NodeId id, const std::vector<bool>& receptions) {
    Link& link = links_[id];
    for (const bool heard : receptions) observe_slot(link, heard);
  }

  bool on_beacon(NodeId id) {
    Link* link = find(id);
    if (link == nullptr) return false;
    link->heard = true;
    return clear(*link);
  }

  std::vector<NodeId> sweep(double t) {
    std::vector<NodeId> fresh;
    for (auto& [id, link] : links_) {  // ascending ids
      observe_slot(link, link.heard);
      link.heard = false;
      const auto missed =
          std::count(link.slots.begin(), link.slots.end(), false);
      if (static_cast<std::size_t>(missed) >= kSuspectMissedK &&
          suspect(link, t)) {
        fresh.push_back(id);
      }
    }
    return fresh;
  }

  bool on_tx_success(NodeId id) {
    Link* link = find(id);
    if (link == nullptr) return false;
    link->quality = ewma(link->quality, 1.0);
    return clear(*link);
  }

  bool on_tx_failure(NodeId id, double t) {
    Link* link = find(id);
    if (link == nullptr) return false;
    link->quality = ewma(link->quality, 0.0);
    return ++link->tx_failures >= kSuspectTxFailures && suspect(*link, t);
  }

  bool quarantined(NodeId id, double t) const {
    const auto it = links_.find(id);
    return it != links_.end() && it->second.suspected && t < it->second.until;
  }
  bool usable(NodeId id, double t) const {
    const auto it = links_.find(id);
    return it != links_.end() && it->second.quality >= kMinQuality &&
           !quarantined(id, t);
  }
  double quality(NodeId id) const {
    const auto it = links_.find(id);
    return it == links_.end() ? 0.0 : it->second.quality;
  }
  double etx(NodeId id) const { return 1.0 / std::max(quality(id), 0.05); }
  std::size_t max_streak() const { return max_streak_; }

 private:
  struct Link {
    std::deque<bool> slots;  ///< heard per beacon slot, oldest first
    double quality = 0.5;
    bool heard = false;  ///< a beacon arrived during the current slot
    std::size_t tx_failures = 0;
    bool suspected = false;
    std::size_t streak = 0;
    double until = 0.0;
  };

  Link* find(NodeId id) {
    const auto it = links_.find(id);
    return it == links_.end() ? nullptr : &it->second;
  }
  static double ewma(double quality, double observed) {
    return (1.0 - kEwmaAlpha) * quality + kEwmaAlpha * observed;
  }
  static void observe_slot(Link& link, bool heard) {
    link.slots.push_back(heard);
    if (link.slots.size() > kLivenessWindowN) link.slots.pop_front();
    link.quality = ewma(link.quality, heard ? 1.0 : 0.0);
  }
  // Any evidence of life: forget failures and any suspicion.
  static bool clear(Link& link) {
    const bool was_suspected = link.suspected;
    link.tx_failures = 0;
    link.suspected = false;
    link.streak = 0;
    link.until = 0.0;
    return was_suspected;
  }
  // Negative evidence: a no-op while a quarantine runs; otherwise starts
  // or re-confirms the suspicion, doubling the quarantine up to the cap.
  // True only for a fresh suspicion.
  bool suspect(Link& link, double t) {
    if (link.suspected && t < link.until) return false;
    const bool fresh = !link.suspected;
    link.suspected = true;
    ++link.streak;
    max_streak_ = std::max(max_streak_, link.streak);
    double backoff = kBlacklistBaseS;
    for (std::size_t i = 1; i < link.streak && backoff < kBlacklistCapS; ++i) {
      backoff *= 2.0;
    }
    link.until = t + std::min(backoff, kBlacklistCapS);
    return fresh;
  }

  std::map<NodeId, Link> links_;
  std::size_t max_streak_ = 0;
};

TEST(NeighborTableModelTest, RandomOperationsMatchAPlainModel) {
  // Three neighbors on a good, a marginal and a nearly silent link, plus
  // an id that was never booted (every operation on it is a no-op).
  constexpr NodeId kIds[] = {1, 2, 3, 9};
  constexpr double kHearP[] = {0.9, 0.5, 0.1, 0.5};
  std::size_t fresh_suspicions = 0;
  std::size_t clears = 0;
  std::size_t max_streak = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Rng rng(seed);
    NeighborTable table(0);
    NeighborModel model;
    for (std::size_t n = 0; n < 3; ++n) {
      std::vector<bool> receptions(kBootRounds);
      for (std::size_t r = 0; r < kBootRounds; ++r) {
        receptions[r] = rng.bernoulli(kHearP[n]);
      }
      table.boot_neighbor(kIds[n], receptions);
      model.boot(kIds[n], receptions);
    }
    double t = 0.0;
    for (int step = 0; step < 500; ++step) {
      const std::size_t n = rng.uniform_int(4);
      const NodeId id = kIds[n];
      const double op = rng.uniform();
      if (op < 0.4) {
        t += rng.uniform(0.0, 2.0 * kBeaconPeriodS);
        const std::vector<NodeId> fresh = table.sweep(t);
        EXPECT_EQ(fresh, model.sweep(t));
        fresh_suspicions += fresh.size();
      } else if (op < 0.7) {
        if (rng.bernoulli(kHearP[n])) {
          const bool cleared = table.on_beacon(id);
          EXPECT_EQ(cleared, model.on_beacon(id));
          clears += cleared ? 1 : 0;
        }
      } else if (rng.bernoulli(kHearP[n])) {
        const bool cleared = table.on_tx_success(id);
        EXPECT_EQ(cleared, model.on_tx_success(id));
        clears += cleared ? 1 : 0;
      } else {
        const bool fresh = table.on_tx_failure(id, t);
        EXPECT_EQ(fresh, model.on_tx_failure(id, t));
        fresh_suspicions += fresh ? 1 : 0;
      }
      // The queries are pure, so probing ahead also pins each quarantine's
      // length.
      for (const NodeId v : kIds) {
        for (const double ahead : {0.0, 10.0, 40.0}) {
          EXPECT_EQ(table.usable(v, t + ahead), model.usable(v, t + ahead));
          EXPECT_EQ(table.suspects(v, t + ahead),
                    model.quarantined(v, t + ahead));
        }
        EXPECT_DOUBLE_EQ(table.quality(v), model.quality(v));
        // The route cost is cached per entry; it must be the model's
        // formula to the last bit.
        EXPECT_EQ(table.etx(v), model.etx(v));
      }
      // Routing reads the slots directly: each slot's cached cost must
      // agree with the model at every step.
      const LinkSlots& links = table.links();
      for (std::size_t k = table.first_slot(); k < table.end_slot(); ++k) {
        const NodeId v = links.ids[k];
        for (const double ahead : {0.0, 10.0, 40.0}) {
          EXPECT_EQ(NeighborTable::usable(links.cost[k], t + ahead),
                    model.usable(v, t + ahead));
        }
        EXPECT_EQ(links.cost[k].etx, model.etx(v));
      }
      if (HasFailure()) {
        FAIL() << "diverged at seed " << seed << ", step " << step;
      }
    }
    max_streak = std::max(max_streak, model.max_streak());
  }
  // The sequences exercised the whole rule: suspicions, clears, and a
  // backoff that reached its cap.
  EXPECT_GT(fresh_suspicions, 100u);
  EXPECT_GT(clears, 100u);
  EXPECT_GE(max_streak, 5u);  // kBlacklistBaseS * 2^4 > kBlacklistCapS
}

// ------------------------------------------------- beacons on a network

TEST(SelfHealingTest, CrashedNeighborBecomesSuspectedNeverCleared) {
  // A single 25 m link (PRR ~0.95): beacon slots are almost never missed
  // by accident, so the only suspicion the survivor can raise is the real
  // one — and a crash-stop node never speaks again, so it is never
  // cleared (no false suspicions). Wider grids include marginal 50 m
  // links whose churn is covered by BurstLossCausesOnlyTransientSuspicion.
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.faults.crashes.push_back({1, 50.0});
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  net.start_beacons(250.0);
  net.run_events();
  const auto& stats = net.stats();
  EXPECT_GT(stats.beacons_sent, 0u);
  EXPECT_GT(stats.beacon_receptions, 0u);
  EXPECT_GT(stats.suspicions, 0u);
  EXPECT_EQ(stats.false_suspicions, 0u);
  // The survivor no longer forwards through its dead neighbor: repeated
  // silent slots both re-confirm the quarantine and decay the EWMA
  // quality below the forwarding floor.
  EXPECT_FALSE(net.neighbor_table(0).usable(1, net.events().now()));
  EXPECT_LT(net.neighbor_table(0).quality(1), 0.25);
}

TEST(SelfHealingTest, BeaconStreamsAreSeedDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    NetworkConfig cfg;
    cfg.rows = 3;
    cfg.cols = 3;
    cfg.seed = seed;
    cfg.faults.crashes.push_back({4, 60.0});
    Network net(cfg);
    net.set_delivery_handler([](NodeId, const Message&, double) {});
    net.start_beacons(300.0);
    net.run_events();
    const auto& stats = net.stats();
    return std::tuple(stats.beacons_sent, stats.beacon_receptions,
                      stats.suspicions, stats.false_suspicions);
  };
  const auto baseline = run_once(kDefaultNetworkSeed);
  EXPECT_EQ(baseline, run_once(kDefaultNetworkSeed));
  // The beacon stream is keyed to the master seed: perturbing it changes
  // the jitter and reception draws.
  EXPECT_NE(baseline, run_once(kDefaultNetworkSeed + 1));
}

TEST(SelfHealingTest, BurstLossCausesOnlyTransientSuspicion) {
  // A two-node field under heavy Gilbert–Elliott burst loss: bursts are
  // long enough to trip the K-of-N liveness rule against a perfectly
  // healthy neighbor, but every such suspicion must eventually clear
  // when the burst ends (backoff + probation + the next heard beacon) —
  // burst loss must never blacklist a live link permanently.
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  GilbertElliottParams bursts;
  bursts.p_enter_bad = 0.04;
  bursts.p_exit_bad = 0.05;  // mean burst ~20 beacon attempts
  bursts.loss_bad = 1.0;
  cfg.faults.all_links_burst = bursts;
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  net.start_beacons(4000.0);
  net.run_events();
  const auto& stats = net.stats();
  ASSERT_GT(stats.suspicions, 0u);  // the bursts did bite
  // Both nodes are alive throughout, so every suspicion is false; all of
  // them must have been cleared by a later beacon, except at most the
  // two (one per direction) that may still be in-flight when the beacon
  // horizon ends the run.
  EXPECT_GT(stats.false_suspicions, 0u);
  EXPECT_GE(stats.false_suspicions + 2, stats.suspicions);
  // And the link is not permanently written off: by the horizon the
  // neighbors either trust each other again or are merely in a bounded
  // quarantine (never longer than the cap).
  const NeighborTable table = net.neighbor_table(0);
  ASSERT_EQ(table.end_slot() - table.first_slot(), 1u);
  EXPECT_LE(table.links().state[table.first_slot()].blacklist_until_s,
            net.events().now() + kBlacklistCapS);
}

// --------------------------------------------------- reliable transport

Message report_between(NodeId src, NodeId dst) {
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.payload = DetectionReport{};
  return msg;
}

TEST(ReliableTransportTest, HealthyLinkAcksAndReportsOnce) {
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.radio.extra_loss_probability = 0.0;
  Network net(cfg);
  ReliableTransport transport(net, ReliableConfig{});
  std::size_t app_deliveries = 0;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double t) {
        if (transport.on_deliver(receiver, msg, t)) ++app_deliveries;
      });
  std::vector<ReliableOutcome> outcomes;
  transport.send(report_between(0, 1),
                 [&](ReliableOutcome outcome, double) {
                   outcomes.push_back(outcome);
                 });
  net.run_events();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ReliableOutcome::kAcked);
  EXPECT_EQ(app_deliveries, 1u);
  EXPECT_EQ(transport.pending_count(), 0u);
  EXPECT_EQ(net.registry().counter("net.e2e_acked").value(), 1u);
  EXPECT_EQ(net.registry().counter("net.e2e_gave_up").value(), 0u);
}

TEST(ReliableTransportTest, SinkAddressedSendIsAcked) {
  // A send to the reserved kSinkId reaches the gateway node, whose ack
  // names the gateway as acker. The pending entry must hold the resolved
  // address for the ack to match; with the raw 0xFFFFFFFF every such
  // send retried to exhaustion and gave up.
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.radio.extra_loss_probability = 0.0;
  Network net(cfg);
  ReliableTransport transport(net, ReliableConfig{});
  std::vector<NodeId> app_receivers;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double t) {
        if (transport.on_deliver(receiver, msg, t)) {
          app_receivers.push_back(receiver);
        }
      });
  std::vector<ReliableOutcome> outcomes;
  transport.send(report_between(1, kSinkId),
                 [&](ReliableOutcome outcome, double) {
                   outcomes.push_back(outcome);
                 });
  net.run_events();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], ReliableOutcome::kAcked);
  EXPECT_EQ(app_receivers, std::vector<NodeId>{net.sink_node()});
  EXPECT_EQ(net.registry().counter("net.e2e_gave_up").value(), 0u);
}

TEST(ReliableTransportTest, RetriesRecoverFromLossAndRecordRecoveryTime) {
  // A lossy link with no link-layer ARQ: first attempts drop often, the
  // end-to-end retry loop recovers them, and every recovered delivery
  // lands in the sid.recovery_time_s histogram.
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.radio.extra_loss_probability = 0.45;
  cfg.max_retransmissions = 0;
  // Oracle routing isolates the transport's retry loop: under
  // self-healing the sender's own table would (correctly) blacklist a
  // 45 %-lossy link, turning later sends unroutable, which is the
  // neighbor layer's behavior, not the transport's.
  cfg.routing = RoutingMode::kOracle;
  Network net(cfg);
  ReliableTransport transport(net, ReliableConfig{});
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double t) {
        transport.on_deliver(receiver, msg, t);
      });
  std::size_t acked = 0;
  for (int i = 0; i < 40; ++i) {
    net.events().schedule_at(20.0 * i, [&] {
      transport.send(report_between(0, 1),
                     [&](ReliableOutcome outcome, double) {
                       if (outcome == ReliableOutcome::kAcked) ++acked;
                     });
    });
  }
  net.run_events();
  EXPECT_GT(acked, 20u);  // most get through within the retry budget
  EXPECT_GT(net.registry().counter("net.e2e_retries").value(), 0u);
  const auto* recovery =
      net.registry().find_histogram("sid.recovery_time_s");
  ASSERT_NE(recovery, nullptr);
  EXPECT_GT(recovery->count(), 0u);
  EXPECT_GT(recovery->min(), 0.0);
}

TEST(SelfHealingFaultTest, BatteryDeathMidMultihopGivesUpExplicitly) {
  // 1x3 line, self-healing routing: the only relay runs out of battery
  // mid-run. Sends that can no longer cross must end in an explicit
  // kGaveUp callback — never a silent hang — and the event queue must
  // still drain (bounded retries, bounded beacon horizon).
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 3;
  cfg.faults.battery_overrides.push_back({1, 2.0});  // mJ: a few relays
  Network net(cfg);
  ReliableTransport transport(net, ReliableConfig{});
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double t) {
        transport.on_deliver(receiver, msg, t);
      });
  std::size_t acked = 0, gave_up = 0;
  for (int i = 0; i < 10; ++i) {
    net.events().schedule_at(30.0 * i, [&] {
      transport.send(report_between(0, 2),
                     [&](ReliableOutcome outcome, double) {
                       if (outcome == ReliableOutcome::kAcked) {
                         ++acked;
                       } else {
                         ++gave_up;
                       }
                     });
    });
  }
  net.run_events();
  EXPECT_GT(acked, 0u);    // the line worked until the battery ran out
  EXPECT_GT(gave_up, 0u);  // then every send failed *explicitly*
  EXPECT_EQ(acked + gave_up, 10u);  // no outcome lost
  EXPECT_EQ(transport.pending_count(), 0u);
  EXPECT_TRUE(net.node(1).energy.depleted());
}

}  // namespace
}  // namespace sid::wsn
