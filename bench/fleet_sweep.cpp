// Fleet-scale scaling sweep (ROADMAP #1): adjacency construction through
// the historical O(N^2) pairwise scan vs the uniform-grid spatial index,
// plus end-to-end beacon-plane throughput (events/sec) of the windowed
// engine across field sizes.
//
//   --smoke        tiny sizes, each workload exactly once — deterministic
//                  per-stage profile counts for the perf-trend gate
//   (default)      full sweep: adjacency 100 -> 100k anchors, beacon
//                  fields 100 -> ~100k nodes
//
// Every benchmark runs Iterations(1): one iteration is a full workload,
// and a fixed iteration count keeps the profile-registry counters in the
// --json-out dump reproducible (scripts/bench_compare.py diffs them
// against bench/baselines/BENCH_fleet_sweep.json with a tight count
// tolerance and a loose timing tolerance).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bench_json_main.h"
#include "util/geometry.h"
#include "wsn/network.h"
#include "wsn/radio.h"
#include "wsn/spatial_index.h"

namespace {

using namespace sid;

// Beacon horizon for the fleet benchmarks (sim seconds). Short enough to
// keep the 100k-node point tractable, long enough for several beacon
// rounds per node.
constexpr double kBeaconHorizonS = 20.0;

// Square-ish anchor grid at the paper's 25 m deployment spacing.
std::vector<util::Vec2> grid_anchors(std::size_t n) {
  const auto cols =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<util::Vec2> anchors;
  anchors.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    anchors.push_back({static_cast<double>(i % cols) * 25.0,
                       static_cast<double>(i / cols) * 25.0});
  }
  return anchors;
}

// The historical O(N^2) adjacency build: every pair, triangular. Kept
// here purely as the baseline the spatial index is measured against
// (EXPERIMENTS.md §fleet_sweep); production code must route range queries
// through wsn/spatial_index — the spatial-funnel lint bans this loop
// shape outside that module.
void BM_AdjacencyPairwise(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<util::Vec2> anchors = grid_anchors(n);
  const wsn::Radio radio{wsn::RadioConfig{}};
  for (auto _ : state) {
    std::vector<std::vector<wsn::NodeId>> adjacency(n);
    for (std::size_t i = 0; i < n; ++i) {  // lint:allow spatial-funnel
      for (std::size_t j = i + 1; j < n; ++j) {
        if (radio.in_range(util::distance(anchors[i], anchors[j]))) {
          adjacency[i].push_back(static_cast<wsn::NodeId>(j));
          adjacency[j].push_back(static_cast<wsn::NodeId>(i));
        }
      }
    }
    benchmark::DoNotOptimize(adjacency);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Same adjacency lists via the uniform-grid index (build + N queries),
// the shape Network::build_adjacency uses. Byte-identity of the result
// to the pairwise loop is pinned by tests/spatial_index_test.cpp; this
// benchmark pins the sub-quadratic scaling.
void BM_AdjacencyIndexed(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<util::Vec2> anchors = grid_anchors(n);
  const wsn::Radio radio{wsn::RadioConfig{}};
  const double range_m = radio.config().max_range_m;
  for (auto _ : state) {
    const wsn::SpatialIndex index(anchors, range_m);
    std::vector<std::vector<wsn::NodeId>> adjacency(n);
    std::vector<wsn::SpatialIndex::PointId> candidates;
    for (std::size_t i = 0; i < n; ++i) {
      index.query(anchors[i], range_m, candidates);
      for (const wsn::SpatialIndex::PointId j : candidates) {
        if (j == static_cast<wsn::SpatialIndex::PointId>(i)) continue;
        if (radio.in_range(util::distance(anchors[i], anchors[j]))) {
          adjacency[i].push_back(static_cast<wsn::NodeId>(j));
        }
      }
    }
    benchmark::DoNotOptimize(adjacency);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Beacon-plane throughput of a full self-healing field: range(0) is the
// grid side (nodes = side^2). Construction (boot discovery + adjacency)
// is excluded from the timed region, and the engine runs on the calling
// thread, so items/sec reads as simulator events per wall second.
void BM_FleetBeacons(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  wsn::NetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  std::int64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    wsn::Network net(cfg);
    state.ResumeTiming();
    net.start_beacons(kBeaconHorizonS);
    events += static_cast<std::int64_t>(net.run_events());
  }
  state.SetItemsProcessed(events);
  state.counters["nodes"] = static_cast<double>(side * side);
}

void register_benchmarks(bool smoke) {
  const std::vector<std::int64_t> adjacency_sizes =
      smoke ? std::vector<std::int64_t>{100, 1000}
            : std::vector<std::int64_t>{100, 1000, 10000};
  for (const std::int64_t n : adjacency_sizes) {
    benchmark::RegisterBenchmark("BM_AdjacencyPairwise", BM_AdjacencyPairwise)
        ->Arg(n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // The indexed build stays tractable well past where the pairwise scan
  // stops being runnable — full mode extends it to 100k anchors.
  std::vector<std::int64_t> indexed_sizes = adjacency_sizes;
  if (!smoke) indexed_sizes.push_back(100000);
  for (const std::int64_t n : indexed_sizes) {
    benchmark::RegisterBenchmark("BM_AdjacencyIndexed", BM_AdjacencyIndexed)
        ->Arg(n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  const std::vector<std::int64_t> sides =
      smoke ? std::vector<std::int64_t>{10}
            : std::vector<std::int64_t>{10, 50, 100, 316};
  for (const std::int64_t side : sides) {
    benchmark::RegisterBenchmark("BM_FleetBeacons", BM_FleetBeacons)
        ->Arg(side)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Sizes depend on --smoke, so peek at the flag before registering;
  // sid_bench_main re-parses it for min-time / json-out handling.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") smoke = true;
  }
  register_benchmarks(smoke);
  return sid_bench_main(argc, argv, "BENCH_fleet_sweep.json");
}
