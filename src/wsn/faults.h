// Fault-injection layer for the WSN substrate.
//
// The cluster protocol is required to survive "wireless communication
// errors and possible network congestions" (§IV-C); a real buoy field
// additionally loses nodes to battery depletion, storm damage and sensor
// defects. A FaultPlan schedules, per node and per link:
//
//   - crash-stop node death at a given time (the node neither transmits,
//     receives, routes, nor samples afterwards);
//   - battery overrides (tiny budgets that make the enforced depletion
//     path reachable within a scenario);
//   - Gilbert–Elliott bursty link loss layered on the sigmoid PRR;
//   - transient congestion windows (elevated extra loss over an interval);
//   - sensor faults on buoys (stuck-at, gain drift, saturation), applied
//     by the sensing layer via core/scenario.
//
// The layer is strictly opt-in: an empty plan adds no RNG draws and no
// behavioural change, so un-faulted runs are bit-identical with or
// without it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"
#include "wsn/messages.h"

namespace sid::wsn {

/// Crash-stop failure: the node is dead for all t >= time_s.
struct NodeCrash {
  NodeId node = 0;
  double time_s = 0.0;
};

/// Replaces the node's battery budget (mJ, positive). Used to make
/// depletion — which the network now enforces — reachable inside a short
/// scenario.
struct BatteryOverride {
  NodeId node = 0;
  double battery_mj = 1.0;
};

/// Two-state Gilbert–Elliott burst-loss chain, advanced once per
/// transmission attempt. Stationary loss rate:
///   pi_bad = p_enter_bad / (p_enter_bad + p_exit_bad)
///   loss   = pi_bad * loss_bad + (1 - pi_bad) * loss_good
struct GilbertElliottParams {
  double p_enter_bad = 0.05;  ///< P(good -> bad) per attempt
  double p_exit_bad = 0.25;   ///< P(bad -> good) per attempt
  double loss_good = 0.0;     ///< extra loss probability in the good state
  double loss_bad = 0.8;      ///< extra loss probability in the bad state

  bool operator==(const GilbertElliottParams&) const = default;
};

/// Bursty loss on one undirected link (both directions share the chain).
struct LinkBurst {
  NodeId a = 0;
  NodeId b = 0;
  GilbertElliottParams params;
};

/// Elevated congestion loss applied to every transmission attempt whose
/// send time falls inside [start_s, end_s].
struct CongestionWindow {
  double start_s = 0.0;
  double end_s = 0.0;
  double extra_loss_probability = 0.3;
};

/// Buoy sensor defect kinds (applied in src/sensing; see
/// sense::SensorFaultConfig). The wsn layer only carries the schedule so
/// that one FaultPlan describes the whole failure scenario.
enum class SensorFaultKind {
  kStuckAt,     ///< output freezes at the first faulty reading
  kGainDrift,   ///< sensitivity drifts multiplicatively over time
  kSaturation,  ///< dynamic range collapses; readings clip hard
};

struct SensorFaultSpec {
  NodeId node = 0;
  SensorFaultKind kind = SensorFaultKind::kStuckAt;
  double start_s = 0.0;
  /// kGainDrift: fractional gain change per second (e.g. -0.005).
  double gain_drift_per_s = -0.005;
  /// kSaturation: readings clip to +/- this many g.
  double saturation_g = 0.3;
};

/// Hydrophone defect kinds (applied by core/scenario when synthesizing
/// the acoustic contact stream; the wsn layer only carries the schedule).
enum class AcousticFaultKind {
  kContactDropout,  ///< contacts after start_s are lost with drop_fraction
  kGainDrift,       ///< receiver sensitivity decays; SNR falls over time
  kClutterStorm,    ///< biologic/weather clutter floods the detector
};

struct AcousticFaultSpec {
  NodeId node = 0;
  AcousticFaultKind kind = AcousticFaultKind::kContactDropout;
  double start_s = 0.0;
  /// kContactDropout: probability an affected contact is silently lost.
  double drop_fraction = 0.75;
  /// kGainDrift: SNR penalty accumulated per second after start_s (dB/s).
  double gain_drift_db_per_s = 0.05;
  /// kClutterStorm: extra clutter contacts per hour while the storm lasts.
  double clutter_rate_per_hour = 120.0;
  /// kClutterStorm: storm end (ignored by the other kinds).
  double end_s = 0.0;
};

struct FaultPlan {
  std::vector<NodeCrash> crashes;
  std::vector<BatteryOverride> battery_overrides;
  std::vector<LinkBurst> link_bursts;
  /// When set, every link gets its own Gilbert–Elliott chain with these
  /// parameters (channel-wide weather/interference bursts).
  std::optional<GilbertElliottParams> all_links_burst;
  std::vector<CongestionWindow> congestion;
  std::vector<SensorFaultSpec> sensor_faults;
  std::vector<AcousticFaultSpec> acoustic_faults;

  bool empty() const {
    return crashes.empty() && battery_overrides.empty() &&
           link_bursts.empty() && !all_links_burst && congestion.empty() &&
           sensor_faults.empty() && acoustic_faults.empty();
  }
};

// ---------------------------------------------------------------------------
// Adversarial layer. Like the FaultPlan, an AttackPlan is a deterministic
// schedule interpreted by the Network: every attack draws exclusively from
// a dedicated master-seed-derived stream and rides the ordinary event
// queue and radio model, so an empty plan adds no draws, no events, and no
// behavioural change (bit-identity with the seed run is test-enforced).
// The attacker model is in-band only: compromised nodes transmit through
// their real radios from their real positions, but may lie about every
// byte of what they transmit (identities, sequence numbers, payloads).

/// Sentinel for ForgeryAttack::victim: impersonate every deployed
/// identity round-robin (Sybil-style blanket forgery).
inline constexpr NodeId kForgeAllIds = 0xFFFFFFFE;

/// What traffic class a forger fabricates.
enum class ForgedTraffic {
  kReports,           ///< fabricated fallback DetectionReports
  kDecisions,         ///< fabricated intrusion ClusterDecisions
  kAcousticContacts,  ///< fabricated AcousticContactReports (multi-modal
                      ///< path: a phantom-vessel injection on the
                      ///< acoustic channel)
};

/// Passive capture + delayed re-injection: the attacker records
/// report/decision traffic transmitted within its radio range during the
/// capture window and replays each captured message verbatim after
/// `replay_delay_s`, routed from its own position.
struct ReplayAttack {
  NodeId attacker = 0;
  double capture_start_s = 0.0;
  double capture_end_s = 0.0;
  double replay_delay_s = 30.0;
  /// Memory bound: at most this many messages are captured (and each is
  /// replayed exactly once).
  std::size_t max_captures = 16;
};

/// Periodic fabricated traffic claiming another node's identity, with
/// attacker-chosen (implausibly high) sequence numbers — the classic
/// sequence-poisoning vector: an undefended receiver's dedup window slides
/// to the forged high watermark and then rejects the victim's legitimate
/// in-window traffic as stale.
struct ForgeryAttack {
  NodeId attacker = 0;
  /// Identity claimed on the fabricated traffic (kForgeAllIds cycles
  /// through the whole deployment).
  NodeId victim = kForgeAllIds;
  /// Destination of the fabricated unicasts (typically the sink or a
  /// static cluster head — the attacker knows the deployment layout).
  NodeId target = 0;
  ForgedTraffic traffic = ForgedTraffic::kDecisions;
  double start_s = 0.0;
  double end_s = 0.0;
  double period_s = 5.0;
  /// Fabricated messages per tick (kForgeAllIds advances the victim
  /// cursor per message, so bursts widen identity coverage).
  std::size_t burst = 1;
  /// A careful forger stamps the impersonated node's deployment position
  /// on the payload; a sloppy one uses its own (and trips the guard's
  /// position-plausibility check).
  bool spoof_position = true;
  /// First sequence number of the fabricated stream. The attacker cannot
  /// know the victim's live counter; a high base maximizes window damage.
  std::uint32_t seq_base = 1u << 20;
};

/// Node replication: a compromised host radio runs a second identity,
/// emitting reports that claim `cloned`'s id and deployment position with
/// an independent low-base sequence stream racing the real node's — the
/// conflicting (id, position, seq) evidence stream of the replication-
/// attack literature.
struct CloneAttack {
  NodeId host = 0;    ///< compromised node whose radio the clone uses
  NodeId cloned = 0;  ///< identity being replicated
  /// Destination of the clone's fabricated reports.
  NodeId target = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double period_s = 5.0;
  /// First sequence number of the clone's stream (low: a smart clone
  /// races the victim's counter instead of jumping far ahead).
  std::uint32_t seq_base = 0;
};

/// Sinkhole-style forged hellos: the attacker broadcasts beacons claiming
/// id `spoofed`, keeping that identity alive and attractive in its
/// physical neighbors' learned tables (e.g. resurrecting a crashed node so
/// traffic keeps routing into a black hole).
struct BeaconSpoofAttack {
  NodeId attacker = 0;
  NodeId spoofed = 0;  ///< identity advertised in the forged hellos
  double start_s = 0.0;
  double end_s = 0.0;
  double period_s = 5.0;
};

struct AttackPlan {
  std::vector<ReplayAttack> replays;
  std::vector<ForgeryAttack> forgeries;
  std::vector<CloneAttack> clones;
  std::vector<BeaconSpoofAttack> beacon_spoofs;

  bool empty() const {
    return replays.empty() && forgeries.empty() && clones.empty() &&
           beacon_spoofs.empty();
  }

  /// True when `id` is implicated in the plan, either as a compromised
  /// radio or as an impersonated victim. Quarantining any *other*
  /// identity is a false quarantine (the ground-truth side of the
  /// defense.false_quarantines counter; the defense itself never reads
  /// the plan).
  bool implicates(NodeId id) const;
};

/// Structural validation (windows ordered, periods positive). Node-id
/// range checks happen in the Network, which knows the deployment size.
void validate_attack_plan(const AttackPlan& plan);

/// One Gilbert–Elliott chain; state advances per transmission attempt.
class GilbertElliott {
 public:
  explicit GilbertElliott(const GilbertElliottParams& params);

  /// Advances the chain one attempt and samples whether that attempt is
  /// lost to the burst process.
  bool drops(util::Rng& rng);

  /// The one step every chain takes: advances the state `bad` of a chain
  /// with `params` one attempt and samples whether the attempt is lost.
  static bool advance(const GilbertElliottParams& params, bool& bad,
                      util::Rng& rng);

  bool in_bad_state() const { return bad_; }

  /// Long-run loss probability of the chain (closed form).
  double stationary_loss() const;

  const GilbertElliottParams& params() const { return params_; }

 private:
  GilbertElliottParams params_;
  bool bad_ = false;
};

/// Runtime interpreter of a FaultPlan. Owned by the Network; queried on
/// every routing decision and transmission attempt, so its per-node and
/// per-link state lives in flat arrays: one crash time per node id, and
/// one byte of burst-chain state per link, with each distinct parameter
/// set stored once (DESIGN.md §5c).
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, std::uint64_t seed);

  /// True when the plan schedules anything at all. The network skips the
  /// per-transmission fault checks entirely when inactive, keeping the
  /// un-faulted RNG stream untouched.
  bool active() const { return !plan_.empty(); }

  /// True when `node` has crash-stopped at or before time `t` (its
  /// earliest scheduled crash counts).
  bool node_dead(NodeId node, double t) const {
    // A node without a crash reads NaN, which no time reaches.
    return node < crash_at_.size() && t >= crash_at_[node];
  }

  /// Scheduled crash time for `node`, if any.
  std::optional<double> crash_time(NodeId node) const;

  /// Battery budget override for `node`, if any.
  std::optional<double> battery_override(NodeId node) const;

  /// Extra congestion loss probability in effect at time `t` (max over
  /// overlapping windows; 0 outside every window).
  double congestion_loss(double t) const;

  /// Samples whether a transmission attempt at time `t` is lost to
  /// congestion. Draws from the fault RNG only inside a window.
  bool congestion_drops(double t);

  /// Numbers the links bursts are drawn on as 0 .. link_count - 1;
  /// `burst_links[i]` is the link of plan().link_bursts[i]. Under
  /// all_links_burst every link gets a chain, an explicit burst's chain
  /// takes precedence on its link (the first entry among duplicates),
  /// and every chain starts good. Afterwards chains are drawn by link
  /// number only.
  void index_links(std::size_t link_count,
                   const std::vector<std::size_t>& burst_links);

  /// Advances the burst chain of link `link` (if it has one) and returns
  /// true when this attempt is lost to the burst process.
  bool burst_drops(std::size_t link);

  /// The same for the undirected pair {a, b} of a standalone injector
  /// (one never given index_links): chains sit on the plan's explicit
  /// bursts and, under all_links_burst, on every pair from its first
  /// attempt.
  bool burst_drops(NodeId a, NodeId b);

  /// Sensor fault scheduled for `node`, if any (first match).
  std::optional<SensorFaultSpec> sensor_fault(NodeId node) const;

  /// Acoustic (hydrophone) fault scheduled for `node`, if any (first
  /// match).
  std::optional<AcousticFaultSpec> acoustic_fault(NodeId node) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  /// The state byte of a fresh chain (good) with parameters `params`.
  std::uint8_t fresh_chain(const GilbertElliottParams& params) const;

  FaultPlan plan_;
  util::Rng rng_;
  /// Earliest crash time per node id, NaN where the plan crashes none;
  /// sized to the largest crashed id.
  std::vector<double> crash_at_;
  /// Each distinct chain parameter set once: explicit bursts in plan
  /// order, then all_links_burst.
  std::vector<GilbertElliottParams> params_;
  /// One byte per link: 0 for no chain; otherwise bit 0 is the bad state
  /// and the bits above are 1 + the chain's index into params_.
  std::vector<std::uint8_t> chains_;
  /// A standalone injector's links: undirected pair keys (smaller id in
  /// the high word), ascending, numbering chains_. Empty once indexed.
  std::vector<std::uint64_t> pair_keys_;
};

}  // namespace sid::wsn
