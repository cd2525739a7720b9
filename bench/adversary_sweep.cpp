// Adversary sweep: detection recall, forged-decision acceptance and
// quarantine behaviour as the fraction of compromised radios grows,
// defended (wsn/defense plausibility ledgers at the sink and static
// heads) vs undefended, on identical attack plans.
//
// The attack mix cycles per compromised radio:
//   0: decision forgery impersonating every static head with far-future
//      sequence numbers (poisons the sink's dedup windows so legitimate
//      relayed decisions are silently eaten), plus passive replay;
//   1: report forgery with sloppy (attacker-anchored) positions;
//   2: node replication — a clone racing an ordinary victim's identity;
//   3: beacon spoofing that resurrects a crashed node in nearby tables.
//
// Emits schema-stable JSON ("adversary_curve": one point per attacker
// fraction with "defended"/"undefended" arms). Built-in acceptance gates
// (the binary is wired into ctest under the `robustness` label):
//   1. at the point nearest 20 % compromised, defended recall must exceed
//      undefended recall by at least 0.1;
//   2. the attack-free defended run must quarantine nobody (zero
//      defense.quarantines, zero defense.false_quarantines);
//   3. forged-identity decisions accepted at the defended sink must not
//      exceed the undefended count anywhere on the curve.
//
//   adversary_sweep [--smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "core/sid_system.h"
#include "util/rng.h"
#include "wsn/faults.h"

namespace {

using namespace sid;

struct SweepSettings {
  std::size_t rows = 6;
  std::size_t cols = 6;
  double duration_s = 220.0;
  int trials = 3;
  std::vector<double> attacker_fractions{0.0, 0.1, 0.2, 0.3};
};

struct ArmPoint {
  int detections = 0;
  int trials = 0;
  /// Intrusion decisions accepted at the sink whose claimed head the
  /// attack plan implicates (forged identities that got through).
  std::uint64_t false_accepts = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t false_quarantines = 0;
  std::uint64_t filtered = 0;
  std::uint64_t attack_messages = 0;
  double recall() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(detections) /
                             static_cast<double>(trials);
  }
};

struct SweepPoint {
  double fraction = 0.0;
  ArmPoint defended;
  ArmPoint undefended;
};

core::SidSystemConfig base_config(const SweepSettings& s,
                                  std::uint64_t seed) {
  core::SidSystemConfig cfg;
  cfg.network.rows = s.rows;
  cfg.network.cols = s.cols;
  cfg.network.seed = seed;
  cfg.scenario.seed = seed * 17;
  cfg.scenario.trace.duration_s = s.duration_s;
  cfg.scenario.detector.threshold_multiplier_m = 2.0;
  cfg.scenario.detector.anomaly_frequency_threshold = 0.5;
  cfg.cluster.collection_window_s = 70.0;
  cfg.cluster.min_reports = 4;
  return cfg;
}

/// Static cluster heads of the grid (centres of the core::kStaticCellSize
/// cells) — the aggregation identities worth impersonating.
std::vector<wsn::NodeId> static_heads(const core::SidSystemConfig& cfg) {
  std::vector<wsn::NodeId> heads;
  const std::size_t cell = core::kStaticCellSize;
  for (std::size_t r = 0; r < cfg.network.rows; r += cell) {
    for (std::size_t c = 0; c < cfg.network.cols; c += cell) {
      const std::size_t hr =
          std::min((r / cell) * cell + cell / 2, cfg.network.rows - 1);
      const std::size_t hc =
          std::min((c / cell) * cell + cell / 2, cfg.network.cols - 1);
      const auto id = static_cast<wsn::NodeId>(hr * cfg.network.cols + hc);
      if (std::find(heads.begin(), heads.end(), id) == heads.end()) {
        heads.push_back(id);
      }
    }
  }
  return heads;
}

/// Compromises `fraction` of the radios (never the sink, never the
/// to-be-crashed spoof victim) and builds the attack plan, deterministic
/// in `seed`. The spoof victim crashes mid-run so beacon spoofing has a
/// dead identity to resurrect.
void schedule_attacks(core::SidSystemConfig& cfg, double fraction,
                      std::uint64_t seed) {
  const std::size_t n = cfg.network.rows * cfg.network.cols;
  const auto count =
      static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5);
  if (count == 0) return;
  const auto crash_victim = static_cast<wsn::NodeId>(n - 2);
  cfg.network.faults.crashes.push_back(
      {crash_victim, 0.3 * cfg.scenario.trace.duration_s});

  const std::vector<wsn::NodeId> heads = static_heads(cfg);
  std::vector<wsn::NodeId> ordinary;  // clone-victim pool
  for (wsn::NodeId id = 1; id < n; ++id) {
    if (id != crash_victim &&
        std::find(heads.begin(), heads.end(), id) == heads.end()) {
      ordinary.push_back(id);
    }
  }

  std::vector<wsn::NodeId> candidates;
  for (wsn::NodeId id = 1; id < n; ++id) {
    if (id != crash_victim) candidates.push_back(id);
  }
  util::Rng rng(util::derive_seed(seed, 0xbad5eedULL));
  const double start_s = 20.0;  // before the first wake alarms
  const double end_s = cfg.scenario.trace.duration_s;
  for (std::size_t i = 0; i < count && !candidates.empty(); ++i) {
    const auto idx =
        static_cast<std::size_t>(rng.uniform_int(candidates.size()));
    const wsn::NodeId attacker = candidates[idx];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(idx));
    switch (i % 4) {
      case 0: {
        // Impersonate every static head toward the sink with far-future
        // sequence numbers; also capture and replay overheard traffic.
        for (const wsn::NodeId head : heads) {
          if (head == attacker) continue;
          wsn::ForgeryAttack atk;
          atk.attacker = attacker;
          atk.victim = head;
          atk.target = 0;
          atk.traffic = wsn::ForgedTraffic::kDecisions;
          atk.start_s = start_s;
          atk.end_s = end_s;
          atk.period_s = 6.0;
          atk.burst = 2;
          cfg.network.attacks.forgeries.push_back(atk);
        }
        wsn::ReplayAttack replay;
        replay.attacker = attacker;
        replay.capture_start_s = start_s;
        replay.capture_end_s = 0.6 * end_s;
        replay.replay_delay_s = 30.0;
        cfg.network.attacks.replays.push_back(replay);
        break;
      }
      case 1: {
        wsn::ForgeryAttack atk;
        atk.attacker = attacker;
        atk.victim = ordinary[attacker % ordinary.size()];
        atk.target = 0;
        atk.traffic = wsn::ForgedTraffic::kReports;
        atk.start_s = start_s;
        atk.end_s = end_s;
        atk.period_s = 5.0;
        atk.spoof_position = false;  // sloppy attacker: wrong anchor
        cfg.network.attacks.forgeries.push_back(atk);
        break;
      }
      case 2: {
        wsn::CloneAttack atk;
        atk.host = attacker;
        atk.cloned = ordinary[(attacker * 3 + 1) % ordinary.size()];
        if (atk.cloned == attacker) {
          atk.cloned = ordinary[(attacker * 3 + 2) % ordinary.size()];
        }
        atk.target = 0;
        atk.start_s = start_s;
        atk.end_s = end_s;
        atk.period_s = 5.0;
        cfg.network.attacks.clones.push_back(atk);
        break;
      }
      default: {
        wsn::BeaconSpoofAttack atk;
        atk.attacker = attacker;
        atk.spoofed = crash_victim;
        atk.start_s = 0.35 * end_s;  // after the victim crashed
        atk.end_s = end_s;
        atk.period_s = 5.0;
        cfg.network.attacks.beacon_spoofs.push_back(atk);
        break;
      }
    }
  }
}

ArmPoint run_arm(const SweepSettings& s, double fraction, bool defended) {
  ArmPoint arm;
  for (int trial = 0; trial < s.trials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(51 + trial);
    auto cfg = base_config(s, seed);
    schedule_attacks(cfg, fraction, seed);
    cfg.network.defense.enabled = defended;
    core::SidSystem system(cfg);
    const double grid_mid_x = 0.5 *
                              static_cast<double>(cfg.network.cols - 1) *
                              cfg.network.spacing_m;
    const auto ship = bench::crossing_ship(
        10.0, 86.0 + 2.0 * static_cast<double>(trial % 3), grid_mid_x);
    const auto result =
        system.run(std::vector<wake::ShipTrackConfig>{ship});
    ++arm.trials;
    bool detected = false;
    for (const auto& r : result.sink_reports) {
      if (!r.decision.intrusion) continue;
      // Ground truth by construction: every forged decision carries a
      // far-future sequence number (ForgeryAttack::seq_base = 1 << 20);
      // the real pipeline's per-head counters stay tiny. An accepted
      // far-future decision is a forgery that got through.
      if (r.decision.seq >= (1u << 20)) {
        ++arm.false_accepts;
      } else {
        detected = true;
      }
    }
    if (detected) ++arm.detections;
    const auto& net = result.network_stats;
    arm.quarantines += net.defense_quarantines;
    arm.false_quarantines += net.defense_false_quarantines;
    arm.filtered += net.defense_filtered + net.defense_drops;
    arm.attack_messages += net.attack_replays + net.attack_forgeries +
                           net.attack_clone_reports +
                           net.attack_beacon_spoofs;
  }
  return arm;
}

void emit_arm(const char* key, const ArmPoint& a, const char* suffix) {
  std::printf("\"%s\": {\"recall\": %.3f, \"detections\": %d, "
              "\"trials\": %d, \"false_accepts\": %llu, "
              "\"quarantines\": %llu, \"false_quarantines\": %llu, "
              "\"filtered\": %llu, \"attack_messages\": %llu}%s",
              key, a.recall(), a.detections, a.trials,
              static_cast<unsigned long long>(a.false_accepts),
              static_cast<unsigned long long>(a.quarantines),
              static_cast<unsigned long long>(a.false_quarantines),
              static_cast<unsigned long long>(a.filtered),
              static_cast<unsigned long long>(a.attack_messages), suffix);
}

}  // namespace

int main(int argc, char** argv) {
  SweepSettings settings;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // Tiny grid, two sweep points, enough to exercise every attack
      // class, the defense, and the gates inside a ctest/ASan budget.
      settings.rows = 4;
      settings.cols = 4;
      settings.duration_s = 160.0;
      settings.trials = 1;
      settings.attacker_fractions = {0.0, 0.2};
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  std::vector<SweepPoint> curve;
  for (const double fraction : settings.attacker_fractions) {
    SweepPoint point;
    point.fraction = fraction;
    point.defended = run_arm(settings, fraction, /*defended=*/true);
    point.undefended = run_arm(settings, fraction, /*defended=*/false);
    curve.push_back(point);
  }

  std::printf("{\n");
  std::printf("  \"grid\": \"%zux%zu\", \"trials_per_point\": %d, "
              "\"duration_s\": %.0f,\n",
              settings.rows, settings.cols, settings.trials,
              settings.duration_s);
  std::printf("  \"adversary_curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::printf("    {\"attacker_fraction\": %.2f, ", curve[i].fraction);
    emit_arm("defended", curve[i].defended, ", ");
    emit_arm("undefended", curve[i].undefended, "}");
    std::printf("%s\n", i + 1 < curve.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  // Gate 1: at the point nearest 20 % compromised, the defense must buy
  // at least 10 recall points over the undefended baseline.
  std::size_t at = 0;
  for (std::size_t i = 0; i < settings.attacker_fractions.size(); ++i) {
    if (std::abs(settings.attacker_fractions[i] - 0.2) <
        std::abs(settings.attacker_fractions[at] - 0.2)) {
      at = i;
    }
  }
  if (settings.attacker_fractions[at] > 0.0) {
    const double gap =
        curve[at].defended.recall() - curve[at].undefended.recall();
    if (gap < 0.1) {
      std::fprintf(stderr,
                   "adversary_sweep: defended recall %.3f exceeds "
                   "undefended %.3f by only %.3f (< 0.1) at attacker "
                   "fraction %.2f\n",
                   curve[at].defended.recall(),
                   curve[at].undefended.recall(), gap,
                   settings.attacker_fractions[at]);
      return 1;
    }
  }

  // Gate 2: the attack-free defended run must quarantine nobody — the
  // defense may never tax an honest field.
  for (const auto& p : curve) {
    if (p.fraction == 0.0 && (p.defended.quarantines != 0 ||
                              p.defended.false_quarantines != 0)) {
      std::fprintf(stderr,
                   "adversary_sweep: attack-free defended run quarantined "
                   "%llu identities (%llu false)\n",
                   static_cast<unsigned long long>(p.defended.quarantines),
                   static_cast<unsigned long long>(
                       p.defended.false_quarantines));
      return 1;
    }
  }

  // Gate 3: the defense must never accept more forged-identity decisions
  // than the undefended baseline.
  for (const auto& p : curve) {
    if (p.defended.false_accepts > p.undefended.false_accepts) {
      std::fprintf(stderr,
                   "adversary_sweep: defended sink accepted %llu forged "
                   "decisions vs %llu undefended at fraction %.2f\n",
                   static_cast<unsigned long long>(p.defended.false_accepts),
                   static_cast<unsigned long long>(
                       p.undefended.false_accepts),
                   p.fraction);
      return 1;
    }
  }
  return 0;
}
