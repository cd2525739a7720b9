#include "obs/profile.h"

#include <array>
#include <chrono>
#include <string>

namespace sid::obs {

namespace {

constexpr std::array<std::string_view,
                     static_cast<std::size_t>(Stage::kCount)>
    kStageNames{{
        "filter",
        "stft",
        "wavelet",
        "features",
        "correlation",
        "detector",
        "synthesis",
        "event_dispatch",
        "fusion",
        "adjacency",
        "shard_window",
        "routing",
    }};

/// Log-spaced 1-2-5 nanosecond buckets, 1 us .. 10 s.
std::vector<double> wall_ns_bounds() {
  std::vector<double> bounds;
  for (double decade = 1e3; decade <= 1e10; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.0 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

}  // namespace

std::string_view stage_name(Stage stage) {
  const auto idx = static_cast<std::size_t>(stage);
  return idx < kStageNames.size() ? kStageNames[idx] : "unknown";
}

Registry& profile_registry() {
  static Registry registry;
  return registry;
}

Histogram& stage_histogram(Stage stage) {
  struct Table {
    std::array<Histogram*, static_cast<std::size_t>(Stage::kCount)> slots;
    Table() {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i] = &profile_registry().histogram(
            "profile." + std::string(kStageNames[i]) + "_ns",
            wall_ns_bounds(), Histogram::Clock::kWall);
      }
    }
  };
  static Table table;
  return *table.slots[static_cast<std::size_t>(stage)];
}

void reset_profile() { profile_registry().reset(); }

Counter& dsp_tail_dropped_counter() {
  static Counter& counter =
      profile_registry().counter("dsp.tail_samples_dropped");
  return counter;
}

std::uint64_t monotonic_ns() {
  // Wall-clock read for profiling only; sim behaviour never depends on it.
  const auto now = std::chrono::steady_clock::now();  // lint:allow rng-source
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          now.time_since_epoch())
          .count());
}

}  // namespace sid::obs
