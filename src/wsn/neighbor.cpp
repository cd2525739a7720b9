#include "wsn/neighbor.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.h"

namespace sid::wsn {

namespace {

/// The 8-bit counters saturate instead of wrapping.
void bump(std::uint8_t& count) {
  if (count < std::numeric_limits<std::uint8_t>::max()) ++count;
}

/// Shifts one beacon-slot outcome into the entry's window and EWMA.
void observe_slot(NeighborEntry& entry, bool heard) {
  entry.slot_bits =
      static_cast<std::uint8_t>((entry.slot_bits << 1) | (heard ? 1u : 0u));
  if (entry.slots_observed < kLivenessWindowN) ++entry.slots_observed;
  entry.quality =
      (1.0 - kEwmaAlpha) * entry.quality + kEwmaAlpha * (heard ? 1.0 : 0.0);
}

}  // namespace

NeighborEntry* NeighborTable::find(NodeId id) {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const NeighborEntry& e, NodeId v) { return e.id < v; });
  if (it == entries_.end() || it->id != id) return nullptr;
  return &*it;
}

const NeighborEntry* NeighborTable::find(NodeId id) const {
  return const_cast<NeighborTable*>(this)->find(id);
}

void NeighborTable::refresh(NeighborEntry& entry) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  entry.etx = 1.0 / std::max(entry.quality, kEtxQualityFloor);
  if (entry.quality < kMinQuality) {
    entry.blocked_until_s = kInf;
  } else if (entry.suspected) {
    entry.blocked_until_s = entry.blacklist_until_s;
  } else {
    entry.blocked_until_s = -kInf;
  }
}

void NeighborTable::boot_neighbor(NodeId id,
                                  const std::vector<bool>& receptions) {
  util::require(id != self_, "NeighborTable: node cannot neighbor itself");
  util::require(find(id) == nullptr,
                "NeighborTable: duplicate boot neighbor");
  NeighborEntry entry;
  entry.id = id;
  entry.quality = 0.5;  // uninformed prior, sharpened by the boot rounds
  for (const bool heard : receptions) observe_slot(entry, heard);
  refresh(entry);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const NeighborEntry& e, NodeId v) { return e.id < v; });
  entries_.insert(it, entry);
}

bool NeighborTable::mark_suspected(NeighborEntry& entry, double t) {
  if (entry.suspected && t < entry.blacklist_until_s) {
    return false;  // quarantine already running
  }
  const bool fresh = !entry.suspected;
  entry.suspected = true;
  bump(entry.suspicion_streak);
  const double backoff =
      std::min(kBlacklistCapS,
               kBlacklistBaseS *
                   static_cast<double>(1ULL << std::min(
                                           entry.suspicion_streak - 1, 32)));
  entry.blacklist_until_s = t + backoff;
  // Post-quarantine re-confirmations double the backoff silently; only a
  // fresh alive -> suspected transition is reported to the caller.
  return fresh;
}

bool NeighborTable::clear_suspicion(NeighborEntry& entry) {
  entry.consecutive_tx_failures = 0;
  if (!entry.suspected) return false;
  entry.suspected = false;
  entry.suspicion_streak = 0;  // decay: a recovered neighbor starts clean
  entry.blacklist_until_s = 0.0;
  return true;
}

bool NeighborTable::on_beacon(NodeId from) {
  NeighborEntry* entry = find(from);
  if (entry == nullptr) return false;  // not a deployment neighbor
  entry->heard_this_slot = true;
  const bool cleared = clear_suspicion(*entry);
  refresh(*entry);
  return cleared;
}

std::vector<NodeId> NeighborTable::sweep(double t) {
  std::vector<NodeId> newly_suspected;
  constexpr unsigned window_mask = (1u << kLivenessWindowN) - 1u;
  for (NeighborEntry& entry : entries_) {
    observe_slot(entry, entry.heard_this_slot);
    entry.heard_this_slot = false;
    // K-of-N: count silent slots among the last N observed.
    const std::size_t observed = entry.slots_observed;
    const std::size_t heard_slots = static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(entry.slot_bits & window_mask)));
    const std::size_t missed = observed - std::min(heard_slots, observed);
    if (missed >= kSuspectMissedK) {
      if (mark_suspected(entry, t)) newly_suspected.push_back(entry.id);
    }
    refresh(entry);
  }
  return newly_suspected;
}

bool NeighborTable::on_tx_success(NodeId to) {
  NeighborEntry* entry = find(to);
  if (entry == nullptr) return false;
  entry->quality = (1.0 - kEwmaAlpha) * entry->quality + kEwmaAlpha;
  const bool cleared = clear_suspicion(*entry);
  refresh(*entry);
  return cleared;
}

bool NeighborTable::on_tx_failure(NodeId to, double t) {
  NeighborEntry* entry = find(to);
  if (entry == nullptr) return false;
  bump(entry->consecutive_tx_failures);
  entry->quality = (1.0 - kEwmaAlpha) * entry->quality;
  const bool fresh = entry->consecutive_tx_failures >= kSuspectTxFailures &&
                     mark_suspected(*entry, t);
  refresh(*entry);
  return fresh;
}

bool NeighborTable::usable(NodeId id, double t) const {
  const NeighborEntry* entry = find(id);
  return entry != nullptr && usable(*entry, t);
}

bool NeighborTable::suspects(NodeId id, double t) const {
  const NeighborEntry* entry = find(id);
  if (entry == nullptr) return false;
  return entry->suspected && t < entry->blacklist_until_s;
}

double NeighborTable::quality(NodeId id) const {
  const NeighborEntry* entry = find(id);
  return entry == nullptr ? 0.0 : entry->quality;
}

double NeighborTable::etx(NodeId id) const {
  const NeighborEntry* entry = find(id);
  return entry == nullptr ? 1.0 / kEtxQualityFloor : etx(*entry);
}

bool NeighborTable::any_usable(double t) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const NeighborEntry& e) { return usable(e, t); });
}

}  // namespace sid::wsn
