// Distributed neighbor tables: the in-band replacement for the radio
// oracle.
//
// Each node maintains one NeighborTable learned exclusively from what it
// can actually observe: hello-beacon receptions and the outcomes of its
// own link-layer transmissions. Link quality is an EWMA of per-slot
// beacon reception (an empirical PRR estimate, 1/quality = ETX); liveness
// is a K-of-N missed-beacon rule over a sliding window of recent beacon
// slots. A suspected neighbor is blacklisted from forwarding with
// exponential backoff: each re-confirmation of the suspicion doubles the
// quarantine (up to a cap), while any direct evidence of life — a beacon
// or a successful transmission — clears it and resets the backoff
// (decay). Cleared suspicions are by construction *false* suspicions
// (crash-stop nodes never speak again), which is exactly the metric the
// robustness experiments track.
//
// The table is pure bookkeeping: it never touches the radio, the fault
// injector, or any other node's state. The Network feeds it observations
// and consults it for routing; nothing here can cheat.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "wsn/messages.h"

namespace sid::wsn {

struct NeighborConfig {
  /// Nominal hello-beacon period (seconds).
  double beacon_period_s = 5.0;
  /// Uniform per-tick jitter added to the period so beacons desynchronize
  /// (drawn from the network's master-seed-derived beacon stream).
  double beacon_jitter_s = 1.0;
  /// Beacon payload size (node id + a few table digests), for the energy
  /// and congestion models.
  std::size_t beacon_bytes = 18;
  /// Deployment-time discovery rounds (§III-A: nodes are placed manually
  /// and pre-synchronized; the boot handshake seeds the tables so the
  /// field is routable at t = 0). Boot receptions are physically sampled
  /// but cost no battery — commissioning energy is out of scope.
  std::size_t boot_rounds = 5;
  /// EWMA weight of the newest beacon-slot observation.
  double ewma_alpha = 0.25;
  /// Links with estimated quality below this never enter the forwarding
  /// set (the learned analogue of the oracle's ground-truth PRR
  /// threshold, network.cpp kOracleMinLinkPrr).
  double min_quality = 0.25;
  /// Liveness rule: suspect a neighbor when at least `suspect_missed_k`
  /// of the last `liveness_window_n` expected beacon slots were silent.
  std::size_t liveness_window_n = 8;
  std::size_t suspect_missed_k = 4;
  /// Fast path: suspect after this many consecutive link-layer
  /// transmission failures (ARQ exhaustion) toward the neighbor.
  std::size_t suspect_tx_failures = 2;
  /// Quarantine after the first suspicion; doubles per re-confirmation.
  double blacklist_base_s = 8.0;
  double blacklist_cap_s = 64.0;
};

struct NeighborEntry {
  NodeId id = 0;
  /// EWMA estimate of link delivery ratio in [0, 1].
  double quality = 0.5;
  double last_heard_s = 0.0;
  /// Sliding window of recent beacon slots (bit 0 = newest, 1 = heard).
  std::uint32_t slot_bits = 0;
  /// Number of valid bits in slot_bits (saturates at the window size).
  std::size_t slots_observed = 0;
  bool heard_this_slot = false;
  std::size_t consecutive_tx_failures = 0;
  bool suspected = false;
  /// Consecutive confirmations of the current suspicion; drives the
  /// exponential backoff. Reset to 0 on any evidence of life.
  std::size_t suspicion_streak = 0;
  double blacklist_until_s = 0.0;
};

class NeighborTable {
 public:
  NeighborTable() = default;
  NeighborTable(NodeId self, const NeighborConfig& config)
      : self_(self), config_(config) {}

  /// Registers a physical neighbor discovered at deployment, seeding the
  /// estimate from the boot-round reception outcomes (oldest first).
  void boot_neighbor(NodeId id, const std::vector<bool>& receptions);

  /// Processes one received hello beacon. Returns true when this beacon
  /// cleared an active suspicion (i.e. the suspicion was false).
  bool on_beacon(NodeId from, double t);

  /// Per-slot bookkeeping, run once per own beacon tick: shifts every
  /// neighbor's slot window, updates the EWMA, and applies the K-of-N
  /// rule. Returns the neighbors freshly suspected this sweep.
  std::vector<NodeId> sweep(double t);

  /// Feedback from the node's own transmissions. on_tx_success returns
  /// true when it cleared an active suspicion; on_tx_failure returns
  /// true when the neighbor freshly became suspected.
  bool on_tx_success(NodeId to, double t);
  bool on_tx_failure(NodeId to, double t);

  /// True when the node would currently forward through `id`: known,
  /// estimated quality above the floor, and not quarantined. A neighbor
  /// whose quarantine has expired is usable again (probation) until the
  /// next piece of negative evidence re-confirms the suspicion.
  bool usable(NodeId id, double t) const;
  /// The same test on an entry of entries(), without the id lookup
  /// (inline: route searches call it once per explored link).
  bool usable(const NeighborEntry& entry, double t) const {
    if (entry.quality < config_.min_quality) return false;
    return !(entry.suspected && t < entry.blacklist_until_s);
  }

  /// True while `id` is actively suspected dead (quarantine running).
  bool suspects(NodeId id, double t) const;

  /// Estimated link delivery ratio (0 for unknown neighbors).
  double quality(NodeId id) const;

  /// Expected transmission count for the link (1/quality, floored so a
  /// barely-alive link costs much but not infinitely). At least 1 while
  /// ewma_alpha is in [0, 1], which keeps quality in [0, 1].
  double etx(NodeId id) const;
  /// The same cost for an entry of entries(), without the id lookup.
  static double etx(const NeighborEntry& entry) {
    return 1.0 / std::max(entry.quality, kEtxQualityFloor);
  }

  /// True when at least one neighbor is currently usable.
  bool any_usable(double t) const;

  /// Every deployment neighbor, ascending by id.
  const std::vector<NeighborEntry>& entries() const { return entries_; }
  NodeId self() const { return self_; }

 private:
  /// Quality floor used only inside the ETX division, so a nearly-dead
  /// link costs a large-but-finite number of expected transmissions.
  static constexpr double kEtxQualityFloor = 0.05;

  NeighborEntry* find(NodeId id);
  const NeighborEntry* find(NodeId id) const;
  /// Marks (or re-confirms) a suspicion; returns true only on the fresh
  /// alive -> suspected transition (rearms extend the backoff silently).
  bool mark_suspected(NeighborEntry& entry, double t);
  /// Clears an active suspicion on live evidence; true when one existed.
  bool clear_suspicion(NeighborEntry& entry);

  NodeId self_ = 0;
  NeighborConfig config_;
  std::vector<NeighborEntry> entries_;  ///< sorted by id (deterministic)
};

}  // namespace sid::wsn
