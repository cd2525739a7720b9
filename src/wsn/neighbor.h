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

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "wsn/messages.h"

namespace sid::wsn {

// Protocol constants (DESIGN.md §5f). Every node runs the same protocol,
// so no table carries its own copy.

/// Nominal hello-beacon period (seconds).
inline constexpr double kBeaconPeriodS = 5.0;
/// Uniform per-tick jitter added to the period so beacons desynchronize
/// (drawn from the node's master-seed-derived beacon stream).
inline constexpr double kBeaconJitterS = 1.0;
/// Beacon payload size (node id + a few table digests), for the energy
/// and congestion models.
inline constexpr std::size_t kBeaconBytes = 18;
/// Deployment-time discovery rounds (§III-A: nodes are placed manually
/// and pre-synchronized; the boot handshake seeds the tables so the field
/// is routable at t = 0). Boot receptions are physically sampled but
/// cost no battery — commissioning energy is out of scope.
inline constexpr std::size_t kBootRounds = 5;
/// EWMA weight of the newest beacon-slot observation.
inline constexpr double kEwmaAlpha = 0.25;
/// Links with estimated quality below this never enter the forwarding
/// set (the learned analogue of the oracle's ground-truth PRR threshold,
/// network.cpp kOracleMinLinkPrr).
inline constexpr double kMinQuality = 0.25;
/// Liveness rule: suspect a neighbor when at least `kSuspectMissedK` of
/// the last `kLivenessWindowN` expected beacon slots were silent.
inline constexpr std::size_t kLivenessWindowN = 8;
inline constexpr std::size_t kSuspectMissedK = 4;
/// Fast path: suspect after this many consecutive link-layer
/// transmission failures (ARQ exhaustion) toward the neighbor.
inline constexpr std::size_t kSuspectTxFailures = 2;
/// Quarantine after the first suspicion; doubles per re-confirmation.
inline constexpr double kBlacklistBaseS = 8.0;
inline constexpr double kBlacklistCapS = 64.0;

static_assert(kBeaconPeriodS > 0.0, "beacon ticks must advance");
// Keeps every learned quality in [0, 1], hence every ETX >= 1: the
// premise of the route search's lower bound (Network::learned_path).
static_assert(kEwmaAlpha >= 0.0 && kEwmaAlpha <= 1.0,
              "EWMA weight must be in [0, 1]");
static_assert(kLivenessWindowN <= 8,
              "the slot window must fit LinkState::slot_bits");
static_assert(kBootRounds <= 8,
              "a boot reception pattern fits one byte (NeighborTable::"
              "BootTable)");

/// The route search's half of a learned link, 16 bytes: besides the
/// neighbor's id (LinkSlots::ids) it is all the search reads. The table
/// caches both fields from the link's LinkState after every mutation
/// (NeighborTable::cost_of), so an explored link costs one compare, one
/// load and one add (DESIGN.md §5f).
struct LinkCost {
  /// Cached 1 / max(quality, floor): the link's route cost.
  double etx = 2.0;
  /// Cached forwarding gate: the link is usable at t iff
  /// !(t < blocked_until_s). +inf below kMinQuality, the quarantine end
  /// while suspected, -inf otherwise.
  double blocked_until_s = -std::numeric_limits<double>::infinity();
};
static_assert(sizeof(LinkCost) == 16,
              "the search reads 16 bytes per link (DESIGN.md §5f)");

/// The estimator's half of a learned link, 24 bytes: the state LinkCost
/// is derived from.
struct LinkState {
  /// Sliding window of recent beacon slots (bit 0 = newest, 1 = heard).
  std::uint8_t slot_bits = 0;
  /// Number of valid bits in slot_bits (saturates at the window size).
  std::uint8_t slots_observed = 0;
  /// Saturates at 255; only `>= kSuspectTxFailures` is ever asked.
  std::uint8_t consecutive_tx_failures = 0;
  /// Consecutive confirmations of the current suspicion; drives the
  /// exponential backoff (which caps long before 255, where it
  /// saturates). Reset to 0 on any evidence of life.
  std::uint8_t suspicion_streak = 0;
  bool heard_this_slot = false;
  bool suspected = false;
  /// EWMA estimate of link delivery ratio in [0, 1].
  double quality = 0.5;
  double blacklist_until_s = 0.0;
};
static_assert(sizeof(LinkState) == 24,
              "a link's estimator state stays 24 bytes (DESIGN.md §5f)");

/// The learned links of a whole field, one slot per deployed directed
/// link, fixed at construction (DESIGN.md §5f). Node u's links are the
/// slots [offsets[u], offsets[u + 1]): `ids` is the CSR adjacency,
/// ascending by id within each node's range, and `cost[k]` and
/// `state[k]` are u's belief about its link to ids[k]. Oracle mode
/// learns nothing and keeps only the adjacency.
class LinkSlots {
 public:
  std::vector<std::uint32_t> offsets{0};
  std::vector<NodeId> ids;
  /// The same link seen from the other end: if slot k is u's link to v,
  /// reverse[k] is v's slot for u (every deployed link is symmetric).
  std::vector<std::uint32_t> reverse;
  /// Views of one allocation, sized by learn().
  std::span<LinkCost> cost;
  std::span<LinkState> state;

  /// Gives every slot of `ids` a default LinkCost and LinkState, once per
  /// store. Both arrays live in one block, released with the store
  /// (DESIGN.md §5f). From kMappedBlockBytes up (7.8 MB on a 10k-node
  /// field, its largest allocation) the block is pages mapped for it:
  /// from the heap, a freed block stayed resident while the next field
  /// built in the same process could not reuse its hole, which raised
  /// peak RSS by a block. Smaller blocks come from the heap, where a map
  /// and unmap per field would cost more than the field's whole
  /// construction.
  void learn();
  /// Inserts a slot for `id` before slot `slot`, with its link in state
  /// `link` and a default cost (a standalone table's growth).
  void insert(std::size_t slot, NodeId id, const LinkState& link);

  /// The slot among [first, last) that holds `id`, if one does.
  std::optional<std::size_t> find(std::size_t first, std::size_t last,
                                  NodeId id) const;
  /// The slot of node u's link to v, if they are deployment neighbors.
  std::optional<std::size_t> find(NodeId u, NodeId v) const {
    return find(offsets[u], offsets[u + 1], v);
  }

 private:
  static constexpr std::size_t kMappedBlockBytes = std::size_t{1} << 20;
  struct Release {
    std::size_t bytes;
    void operator()(std::byte* block) const;
  };
  std::unique_ptr<std::byte[], Release> learned_;
};

/// One node's neighbor table: the logic over its slots of a LinkSlots
/// store. Inside a Network it is a view of the node's range; a
/// standalone table owns its store and grows it through boot_neighbor.
/// Slot arguments and results index the store, not the table.
class NeighborTable {
 public:
  /// A standalone table owning its slots (boot_neighbor adds them).
  explicit NeighborTable(NodeId self);
  /// Node `self`'s table in a field-wide store: the slots
  /// [links.offsets[self], links.offsets[self + 1]). The store must
  /// outlive the view.
  NeighborTable(LinkSlots& links, NodeId self);

  /// Adds a physical neighbor discovered at deployment to a standalone
  /// table, its link seeded from the boot-round reception outcomes
  /// (oldest first). A field's slots are seeded once, at construction,
  /// with booted() and cost_of().
  void boot_neighbor(NodeId id, const std::vector<bool>& receptions);
  /// The state of a link seeded from its boot-round reception outcomes.
  static LinkState booted(const std::vector<bool>& receptions);
  /// The cached cost of a link in `state`.
  static LinkCost cost_of(const LinkState& state);

  /// A booted link for every outcome of the kBootRounds boot rounds:
  /// bit r of a pattern is round r's reception (round 0 oldest), and
  /// entry p is booted() and cost_of() of pattern p. A field's
  /// construction copies each slot from it (DESIGN.md §5f).
  struct BootTable {
    static constexpr std::size_t kPatterns = std::size_t{1} << kBootRounds;
    std::array<LinkState, kPatterns> state;
    std::array<LinkCost, kPatterns> cost;
  };
  static BootTable boot_table();

  /// Processes one received hello beacon. Returns true when this beacon
  /// cleared an active suspicion (i.e. the suspicion was false).
  bool on_beacon(NodeId from);
  /// on_beacon for the link in `slot`, one of this table's slots.
  bool on_beacon_at(std::size_t slot);

  /// Per-slot bookkeeping, run once per own beacon tick: shifts every
  /// neighbor's slot window, updates the EWMA, and applies the K-of-N
  /// rule. Returns the neighbors freshly suspected this sweep.
  std::vector<NodeId> sweep(double t);

  /// Feedback from the node's own transmissions. on_tx_success returns
  /// true when it cleared an active suspicion; on_tx_failure returns
  /// true when the neighbor freshly became suspected. The `_at` forms
  /// take the link's slot.
  bool on_tx_success(NodeId to);
  bool on_tx_success_at(std::size_t slot);
  bool on_tx_failure(NodeId to, double t);
  bool on_tx_failure_at(std::size_t slot, double t);

  /// True when the node would currently forward through `id`: known,
  /// estimated quality above the floor, and not quarantined. A neighbor
  /// whose quarantine has expired is usable again (probation) until the
  /// next piece of negative evidence re-confirms the suspicion.
  bool usable(NodeId id, double t) const;
  /// The same test on a link's cached cost, without the id lookup
  /// (inline: route searches call it once per explored link).
  static bool usable(const LinkCost& cost, double t) {
    return !(t < cost.blocked_until_s);
  }

  /// True while `id` is actively suspected dead (quarantine running).
  bool suspects(NodeId id, double t) const;

  /// Estimated link delivery ratio (0 for unknown neighbors).
  double quality(NodeId id) const;

  /// Expected transmission count for the link (1/quality, floored so a
  /// barely-alive link costs much but not infinitely). At least 1, since
  /// kEwmaAlpha in [0, 1] keeps quality in [0, 1].
  double etx(NodeId id) const;

  /// True when at least one neighbor is currently usable.
  bool any_usable(double t) const;

  /// The table's slots in the store, [first_slot(), end_slot()),
  /// ascending by neighbor id.
  std::size_t first_slot() const { return first_; }
  std::size_t end_slot() const { return end_; }
  /// The slot of the link to `id`, if `id` is a deployment neighbor.
  std::optional<std::size_t> slot_of(NodeId id) const {
    return links_->find(first_, end_, id);
  }
  const LinkSlots& links() const { return *links_; }
  NodeId self() const { return self_; }

 private:
  /// Quality floor used only inside the ETX division, so a nearly-dead
  /// link costs a large-but-finite number of expected transmissions.
  static constexpr double kEtxQualityFloor = 0.05;

  /// Marks (or re-confirms) a suspicion; returns true only on the fresh
  /// alive -> suspected transition (rearms extend the backoff silently).
  static bool mark_suspected(LinkState& state, double t);
  /// Clears an active suspicion on live evidence; true when one existed.
  static bool clear_suspicion(LinkState& state);
  /// Recomputes the slot's cached LinkCost from its LinkState. Every
  /// public mutator ends with it, after any mark_suspected or
  /// clear_suspicion it ran.
  void refresh(std::size_t slot) {
    links_->cost[slot] = cost_of(links_->state[slot]);
  }

  /// The standalone table's store; null for a view.
  std::unique_ptr<LinkSlots> owned_;
  LinkSlots* links_ = nullptr;
  NodeId self_ = 0;
  std::size_t first_ = 0;
  std::size_t end_ = 0;
};

}  // namespace sid::wsn
