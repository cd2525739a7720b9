// Multi-modal fusion ablation: sink detection recall under growing
// fault/attack load, for four fusion arms on identical scenarios:
//
//   accel_only    — fuser's acoustic lane disabled (the paper's pipeline;
//                   also the ladder's surviving-accel rung: kAnd with the
//                   acoustic lane down from the start)
//   acoustic_only — fuser's accel lane disabled (hydrophone contacts only)
//   or_fused      — OR over both modalities
//   and_fused     — AND (cross-modal agreement) with graceful degradation
//
// Every arm runs defended (wsn/defense with the acoustic plausibility
// checks) over the same fault + attack plan: hydrophone contact dropout,
// clutter storms, receiver gain drift, accelerometer stuck-at faults,
// and forged acoustic contacts, all scaled by the disrupted-node
// fraction. Emits schema-stable JSON ("fusion_curve"). Built-in
// acceptance gates (wired into ctest under the `robustness` label):
//   1. at the point nearest 20 % disrupted, OR-fused recall must be >=
//      accel-only recall and >= acoustic-only recall (fusion may never
//      cost coverage);
//   2. zero forged acoustic contacts accepted at the sink, anywhere on
//      the curve (ground truth by construction: forged streams start at
//      ForgeryAttack::seq_base = 1 << 20);
//   3. zero false quarantines anywhere — faulted nodes are honest, and
//      the defense may never revoke an honest identity.
//
//   fusion_ablation [--smoke]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
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
  std::vector<double> fractions{0.0, 0.1, 0.2, 0.3, 0.4};
};

enum class Arm { kAccelOnly, kAcousticOnly, kOr, kAnd };

constexpr const char* kArmKeys[] = {"accel_only", "acoustic_only", "or_fused",
                                    "and_fused"};
constexpr Arm kArms[] = {Arm::kAccelOnly, Arm::kAcousticOnly, Arm::kOr,
                         Arm::kAnd};
constexpr std::size_t kArmCount = std::size(kArms);

struct ArmPoint {
  int detections = 0;
  int trials = 0;
  std::uint64_t fused = 0;
  std::uint64_t contacts_sent = 0;
  std::uint64_t contacts_accepted = 0;
  /// Forged acoustic contacts that made it into the sink's accepted
  /// stream (must be zero: gate 2).
  std::uint64_t forged_accepted = 0;
  std::uint64_t acoustic_rejects = 0;
  std::uint64_t forgeries_injected = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t false_quarantines = 0;
  double recall() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(detections) /
                             static_cast<double>(trials);
  }
};

struct SweepPoint {
  double fraction = 0.0;
  ArmPoint arms[kArmCount];
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
  // Multi-modal deployment: every second buoy carries a hydrophone, and
  // the sink-side ledgers run the acoustic plausibility checks.
  cfg.scenario.acoustic.enabled = true;
  cfg.scenario.acoustic.node_stride = 2;
  cfg.network.defense.enabled = true;
  return cfg;
}

void apply_arm(core::SidSystemConfig& cfg, Arm arm) {
  cfg.fusion.policy = core::FusionPolicy::kAnd;
  switch (arm) {
    case Arm::kAccelOnly:
      cfg.fusion.use_acoustic = false;
      break;
    case Arm::kAcousticOnly:
      cfg.fusion.use_accel = false;
      break;
    case Arm::kOr:
      cfg.fusion.policy = core::FusionPolicy::kOr;
      break;
    case Arm::kAnd:
      break;
  }
}

/// Disrupts `fraction` of the non-sink nodes, deterministic in `seed`:
/// cycles forged acoustic contacts, contact dropout, clutter storms,
/// accelerometer stuck-at faults, and receiver gain drift.
void schedule_disruption(core::SidSystemConfig& cfg, double fraction,
                         std::uint64_t seed) {
  const std::size_t n = cfg.network.rows * cfg.network.cols;
  const auto count =
      static_cast<std::size_t>(fraction * static_cast<double>(n) + 0.5);
  if (count == 0) return;
  std::vector<wsn::NodeId> candidates;
  for (wsn::NodeId id = 1; id < n; ++id) candidates.push_back(id);
  util::Rng rng(util::derive_seed(seed, 0xfab1e50ULL));
  const double start_s = 20.0;
  const double end_s = cfg.scenario.trace.duration_s;
  for (std::size_t i = 0; i < count && !candidates.empty(); ++i) {
    const auto idx =
        static_cast<std::size_t>(rng.uniform_int(candidates.size()));
    const wsn::NodeId node = candidates[idx];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(idx));
    switch (i % 5) {
      case 0: {
        // Phantom-vessel injection on the acoustic channel: the attacker
        // reports under its own (coherent) identity with plausible SNRs,
        // so only the contact-stream watermark discipline catches it.
        wsn::ForgeryAttack atk;
        atk.attacker = node;
        atk.victim = node;
        atk.target = 0;
        atk.traffic = wsn::ForgedTraffic::kAcousticContacts;
        atk.start_s = start_s;
        atk.end_s = end_s;
        atk.period_s = 6.0;
        cfg.network.attacks.forgeries.push_back(atk);
        break;
      }
      case 1: {
        wsn::AcousticFaultSpec spec;
        spec.node = node;
        spec.kind = wsn::AcousticFaultKind::kContactDropout;
        spec.start_s = 0.3 * end_s;
        spec.drop_fraction = 0.85;
        cfg.network.faults.acoustic_faults.push_back(spec);
        break;
      }
      case 2: {
        wsn::AcousticFaultSpec spec;
        spec.node = node;
        spec.kind = wsn::AcousticFaultKind::kClutterStorm;
        spec.start_s = start_s;
        spec.end_s = end_s;
        spec.clutter_rate_per_hour = 240.0;
        cfg.network.faults.acoustic_faults.push_back(spec);
        break;
      }
      case 3: {
        wsn::SensorFaultSpec spec;
        spec.node = node;
        spec.kind = wsn::SensorFaultKind::kStuckAt;
        spec.start_s = 0.3 * end_s;
        cfg.network.faults.sensor_faults.push_back(spec);
        break;
      }
      default: {
        wsn::AcousticFaultSpec spec;
        spec.node = node;
        spec.kind = wsn::AcousticFaultKind::kGainDrift;
        spec.start_s = 0.25 * end_s;
        spec.gain_drift_db_per_s = 0.1;
        cfg.network.faults.acoustic_faults.push_back(spec);
        break;
      }
    }
  }
}

ArmPoint run_arm(const SweepSettings& s, double fraction, Arm arm) {
  ArmPoint point;
  for (int trial = 0; trial < s.trials; ++trial) {
    const auto seed = static_cast<std::uint64_t>(91 + trial);
    auto cfg = base_config(s, seed);
    schedule_disruption(cfg, fraction, seed);
    apply_arm(cfg, arm);
    core::SidSystem system(cfg);
    const double grid_mid_x = 0.5 *
                              static_cast<double>(cfg.network.cols - 1) *
                              cfg.network.spacing_m;
    const auto ship = bench::crossing_ship(
        10.0, 86.0 + 2.0 * static_cast<double>(trial % 3), grid_mid_x);
    const auto result =
        system.run(std::vector<wake::ShipTrackConfig>{ship});
    ++point.trials;
    if (result.fused_detections > 0) ++point.detections;
    point.fused += result.fused_detections;
    point.contacts_sent += result.acoustic_contacts_sent;
    point.contacts_accepted += result.acoustic_contacts_accepted;
    for (const auto& contact : result.acoustic_contacts) {
      // Ground truth by construction: legitimate origin-side thinning
      // re-sequences contacts from 0; forged streams start at 1 << 20.
      if (contact.seq >= (1u << 20)) ++point.forged_accepted;
    }
    const auto& net = result.network_stats;
    point.acoustic_rejects += net.defense_acoustic_rejects;
    point.forgeries_injected += net.attack_acoustic_forgeries;
    point.quarantines += net.defense_quarantines;
    point.false_quarantines += net.defense_false_quarantines;
  }
  return point;
}

void emit_arm(const char* key, const ArmPoint& a, const char* suffix) {
  std::printf("\"%s\": {\"recall\": %.3f, \"detections\": %d, "
              "\"trials\": %d, \"fused\": %llu, \"contacts_sent\": %llu, "
              "\"contacts_accepted\": %llu, \"forged_accepted\": %llu, "
              "\"acoustic_rejects\": %llu, \"forgeries_injected\": %llu, "
              "\"quarantines\": %llu, \"false_quarantines\": %llu}%s",
              key, a.recall(), a.detections, a.trials,
              static_cast<unsigned long long>(a.fused),
              static_cast<unsigned long long>(a.contacts_sent),
              static_cast<unsigned long long>(a.contacts_accepted),
              static_cast<unsigned long long>(a.forged_accepted),
              static_cast<unsigned long long>(a.acoustic_rejects),
              static_cast<unsigned long long>(a.forgeries_injected),
              static_cast<unsigned long long>(a.quarantines),
              static_cast<unsigned long long>(a.false_quarantines), suffix);
}

}  // namespace

int main(int argc, char** argv) {
  SweepSettings settings;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      // Tiny grid, two sweep points: exercises every fault/attack class,
      // all four arms, and the gates inside a ctest/ASan budget.
      settings.rows = 4;
      settings.cols = 4;
      settings.duration_s = 160.0;
      settings.trials = 1;
      settings.fractions = {0.0, 0.2};
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  std::vector<SweepPoint> curve;
  for (const double fraction : settings.fractions) {
    SweepPoint point;
    point.fraction = fraction;
    for (std::size_t a = 0; a < kArmCount; ++a) {
      point.arms[a] = run_arm(settings, fraction, kArms[a]);
    }
    curve.push_back(point);
  }

  std::printf("{\n");
  std::printf("  \"grid\": \"%zux%zu\", \"trials_per_point\": %d, "
              "\"duration_s\": %.0f,\n",
              settings.rows, settings.cols, settings.trials,
              settings.duration_s);
  std::printf("  \"fusion_curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::printf("    {\"fraction\": %.2f, ", curve[i].fraction);
    for (std::size_t a = 0; a < kArmCount; ++a) {
      emit_arm(kArmKeys[a], curve[i].arms[a],
               a + 1 < kArmCount ? ", " : "}");
    }
    std::printf("%s\n", i + 1 < curve.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  // Gate 1: fusion may never cost coverage. At the point nearest 20 %
  // disrupted, OR-fused recall >= each single-modality recall.
  std::size_t at = 0;
  for (std::size_t i = 0; i < settings.fractions.size(); ++i) {
    if (std::abs(settings.fractions[i] - 0.2) <
        std::abs(settings.fractions[at] - 0.2)) {
      at = i;
    }
  }
  {
    const double fused_recall = curve[at].arms[2].recall();  // or_fused
    const double accel = curve[at].arms[0].recall();
    const double acoustic = curve[at].arms[1].recall();
    if (fused_recall < accel || fused_recall < acoustic) {
      std::fprintf(stderr,
                   "fusion_ablation: OR-fused recall %.3f below a single "
                   "modality (accel %.3f, acoustic %.3f) at fraction %.2f\n",
                   fused_recall, accel, acoustic, settings.fractions[at]);
      return 1;
    }
  }

  // Gate 2: no forged acoustic contact may ever be accepted; and when
  // forgeries were injected, the defense must actually be filtering.
  for (const auto& p : curve) {
    for (std::size_t a = 0; a < kArmCount; ++a) {
      if (p.arms[a].forged_accepted != 0) {
        std::fprintf(stderr,
                     "fusion_ablation: %llu forged acoustic contacts "
                     "accepted (arm %s, fraction %.2f)\n",
                     static_cast<unsigned long long>(
                         p.arms[a].forged_accepted),
                     kArmKeys[a], p.fraction);
        return 1;
      }
      if (p.arms[a].forgeries_injected > 0 &&
          p.arms[a].acoustic_rejects == 0) {
        std::fprintf(stderr,
                     "fusion_ablation: %llu forged contacts injected but "
                     "the ledger rejected none (arm %s, fraction %.2f)\n",
                     static_cast<unsigned long long>(
                         p.arms[a].forgeries_injected),
                     kArmKeys[a], p.fraction);
        return 1;
      }
    }
  }

  // Gate 3: faulted nodes are honest — zero false quarantines anywhere.
  for (const auto& p : curve) {
    for (std::size_t a = 0; a < kArmCount; ++a) {
      if (p.arms[a].false_quarantines != 0) {
        std::fprintf(stderr,
                     "fusion_ablation: %llu false quarantines (arm %s, "
                     "fraction %.2f)\n",
                     static_cast<unsigned long long>(
                         p.arms[a].false_quarantines),
                     kArmKeys[a], p.fraction);
        return 1;
      }
    }
  }
  return 0;
}
