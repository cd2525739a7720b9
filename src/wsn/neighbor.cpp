#include "wsn/neighbor.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sys/mman.h>

#include <memory>
#include <new>
#include <type_traits>

#include "util/error.h"

namespace sid::wsn {

namespace {

/// The 8-bit counters saturate instead of wrapping.
void bump(std::uint8_t& count) {
  if (count < std::numeric_limits<std::uint8_t>::max()) ++count;
}

/// Shifts one beacon-slot outcome into the link's window and EWMA.
void observe_slot(LinkState& state, bool heard) {
  state.slot_bits = static_cast<std::uint8_t>(
      (static_cast<unsigned>(state.slot_bits) << 1) | (heard ? 1u : 0u));
  if (state.slots_observed < kLivenessWindowN) ++state.slots_observed;
  state.quality =
      (1.0 - kEwmaAlpha) * state.quality + kEwmaAlpha * (heard ? 1.0 : 0.0);
}

}  // namespace

void LinkSlots::Release::operator()(std::byte* block) const {
  if (bytes >= kMappedBlockBytes) {
    munmap(block, bytes);
  } else {
    delete[] block;
  }
}

void LinkSlots::learn() {
  static_assert(std::is_trivially_destructible_v<LinkCost> &&
                    std::is_trivially_destructible_v<LinkState>,
                "the learned block is released without destructor calls");
  static_assert(sizeof(LinkCost) % alignof(LinkState) == 0,
                "the LinkState array starts aligned after the costs");
  const std::size_t n = ids.size();
  if (n == 0) return;  // a field without links allocates nothing
  const std::size_t bytes = n * (sizeof(LinkCost) + sizeof(LinkState));
  if (bytes >= kMappedBlockBytes) {
    void* const pages = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) throw std::bad_alloc();
    learned_ = std::unique_ptr<std::byte[], Release>(
        static_cast<std::byte*>(pages), Release{bytes});
  } else {
    learned_ = std::unique_ptr<std::byte[], Release>(
        new std::byte[bytes], Release{bytes});
  }
  std::byte* const block = learned_.get();
  auto* const costs = reinterpret_cast<LinkCost*>(block);
  auto* const states =
      reinterpret_cast<LinkState*>(block + n * sizeof(LinkCost));
  std::uninitialized_value_construct_n(costs, n);
  std::uninitialized_value_construct_n(states, n);
  cost = {std::launder(costs), n};
  state = {std::launder(states), n};
}

void LinkSlots::insert(std::size_t slot, NodeId id, const LinkState& link) {
  LinkSlots grown;
  grown.ids = ids;
  grown.ids.insert(grown.ids.begin() + static_cast<std::ptrdiff_t>(slot), id);
  grown.learn();
  const std::size_t tail = ids.size() - slot;
  std::copy_n(cost.begin(), slot, grown.cost.begin());
  std::copy_n(cost.begin() + static_cast<std::ptrdiff_t>(slot), tail,
              grown.cost.begin() + static_cast<std::ptrdiff_t>(slot + 1));
  std::copy_n(state.begin(), slot, grown.state.begin());
  std::copy_n(state.begin() + static_cast<std::ptrdiff_t>(slot), tail,
              grown.state.begin() + static_cast<std::ptrdiff_t>(slot + 1));
  grown.state[slot] = link;
  *this = std::move(grown);
}

std::optional<std::size_t> LinkSlots::find(std::size_t first,
                                           std::size_t last,
                                           NodeId id) const {
  const auto begin = ids.begin() + static_cast<std::ptrdiff_t>(first);
  const auto end = ids.begin() + static_cast<std::ptrdiff_t>(last);
  const auto it = std::lower_bound(begin, end, id);
  if (it == end || *it != id) return std::nullopt;
  return static_cast<std::size_t>(it - ids.begin());
}

NeighborTable::NeighborTable(NodeId self)
    : owned_(std::make_unique<LinkSlots>()),
      links_(owned_.get()),
      self_(self) {}

NeighborTable::NeighborTable(LinkSlots& links, NodeId self)
    : links_(&links),
      self_(self),
      first_(links.offsets[self]),
      end_(links.offsets[self + 1]) {}

LinkCost NeighborTable::cost_of(const LinkState& state) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LinkCost cost;
  cost.etx = 1.0 / std::max(state.quality, kEtxQualityFloor);
  if (state.quality < kMinQuality) {
    cost.blocked_until_s = kInf;
  } else if (state.suspected) {
    cost.blocked_until_s = state.blacklist_until_s;
  } else {
    cost.blocked_until_s = -kInf;
  }
  return cost;
}

LinkState NeighborTable::booted(const std::vector<bool>& receptions) {
  LinkState state;  // quality 0.5: the uninformed prior
  for (const bool heard : receptions) observe_slot(state, heard);
  return state;
}

NeighborTable::BootTable NeighborTable::boot_table() {
  BootTable table;
  std::vector<bool> receptions(kBootRounds);
  for (std::size_t pattern = 0; pattern < BootTable::kPatterns; ++pattern) {
    for (std::size_t r = 0; r < kBootRounds; ++r) {
      receptions[r] = ((pattern >> r) & 1u) != 0;
    }
    table.state[pattern] = booted(receptions);
    table.cost[pattern] = cost_of(table.state[pattern]);
  }
  return table;
}

void NeighborTable::boot_neighbor(NodeId id,
                                  const std::vector<bool>& receptions) {
  util::require(owned_ != nullptr,
                "NeighborTable: a field's slots are fixed at construction");
  util::require(id != self_, "NeighborTable: node cannot neighbor itself");
  util::require(!slot_of(id).has_value(),
                "NeighborTable: duplicate boot neighbor");
  // Keep the slots ascending by id, as in a field-wide store.
  const auto slot = static_cast<std::size_t>(
      std::lower_bound(links_->ids.begin(), links_->ids.end(), id) -
      links_->ids.begin());
  links_->insert(slot, id, booted(receptions));
  refresh(slot);
  ++end_;
}

bool NeighborTable::mark_suspected(LinkState& state, double t) {
  if (state.suspected && t < state.blacklist_until_s) {
    return false;  // quarantine already running
  }
  const bool fresh = !state.suspected;
  state.suspected = true;
  bump(state.suspicion_streak);
  const double backoff =
      std::min(kBlacklistCapS,
               kBlacklistBaseS *
                   static_cast<double>(1ULL << std::min(
                                           state.suspicion_streak - 1, 32)));
  state.blacklist_until_s = t + backoff;
  // Post-quarantine re-confirmations double the backoff silently; only a
  // fresh alive -> suspected transition is reported to the caller.
  return fresh;
}

bool NeighborTable::clear_suspicion(LinkState& state) {
  state.consecutive_tx_failures = 0;
  if (!state.suspected) return false;
  state.suspected = false;
  state.suspicion_streak = 0;  // decay: a recovered neighbor starts clean
  state.blacklist_until_s = 0.0;
  return true;
}

bool NeighborTable::on_beacon(NodeId from) {
  const auto slot = slot_of(from);
  return slot.has_value() && on_beacon_at(*slot);  // else not a neighbor
}

bool NeighborTable::on_beacon_at(std::size_t slot) {
  LinkState& state = links_->state[slot];
  state.heard_this_slot = true;
  const bool cleared = clear_suspicion(state);
  refresh(slot);
  return cleared;
}

std::vector<NodeId> NeighborTable::sweep(double t) {
  std::vector<NodeId> newly_suspected;
  constexpr unsigned window_mask = (1u << kLivenessWindowN) - 1u;
  for (std::size_t slot = first_; slot < end_; ++slot) {
    LinkState& state = links_->state[slot];
    observe_slot(state, state.heard_this_slot);
    state.heard_this_slot = false;
    // K-of-N: count silent slots among the last N observed.
    const std::size_t observed = state.slots_observed;
    const std::size_t heard_slots = static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(state.slot_bits & window_mask)));
    const std::size_t missed = observed - std::min(heard_slots, observed);
    if (missed >= kSuspectMissedK && mark_suspected(state, t)) {
      newly_suspected.push_back(links_->ids[slot]);
    }
    refresh(slot);
  }
  return newly_suspected;
}

bool NeighborTable::on_tx_success(NodeId to) {
  const auto slot = slot_of(to);
  return slot.has_value() && on_tx_success_at(*slot);
}

bool NeighborTable::on_tx_success_at(std::size_t slot) {
  LinkState& state = links_->state[slot];
  state.quality = (1.0 - kEwmaAlpha) * state.quality + kEwmaAlpha;
  const bool cleared = clear_suspicion(state);
  refresh(slot);
  return cleared;
}

bool NeighborTable::on_tx_failure(NodeId to, double t) {
  const auto slot = slot_of(to);
  return slot.has_value() && on_tx_failure_at(*slot, t);
}

bool NeighborTable::on_tx_failure_at(std::size_t slot, double t) {
  LinkState& state = links_->state[slot];
  bump(state.consecutive_tx_failures);
  state.quality = (1.0 - kEwmaAlpha) * state.quality;
  const bool fresh = state.consecutive_tx_failures >= kSuspectTxFailures &&
                     mark_suspected(state, t);
  refresh(slot);
  return fresh;
}

bool NeighborTable::usable(NodeId id, double t) const {
  const auto slot = slot_of(id);
  return slot.has_value() && usable(links_->cost[*slot], t);
}

bool NeighborTable::suspects(NodeId id, double t) const {
  const auto slot = slot_of(id);
  if (!slot) return false;
  const LinkState& state = links_->state[*slot];
  return state.suspected && t < state.blacklist_until_s;
}

double NeighborTable::quality(NodeId id) const {
  const auto slot = slot_of(id);
  return slot ? links_->state[*slot].quality : 0.0;
}

double NeighborTable::etx(NodeId id) const {
  const auto slot = slot_of(id);
  return slot ? links_->cost[*slot].etx : 1.0 / kEtxQualityFloor;
}

bool NeighborTable::any_usable(double t) const {
  for (std::size_t slot = first_; slot < end_; ++slot) {
    if (usable(links_->cost[slot], t)) return true;
  }
  return false;
}

}  // namespace sid::wsn
