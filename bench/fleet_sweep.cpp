// Fleet-scale scaling sweep (ROADMAP #1): field construction time
// (grid-walk adjacency plus boot discovery) and end-to-end beacon-plane
// throughput (events/sec) of the windowed engine across field sizes.
//
//   --smoke        tiny sizes, each workload exactly once — deterministic
//                  per-stage profile counts for the perf-trend gate
//   (default)      full sweep: fields of 100 -> ~100k nodes
//
// Every benchmark runs Iterations(1): one iteration is a full workload,
// and a fixed iteration count keeps the profile-registry counters in the
// --json-out dump reproducible (scripts/bench_compare.py diffs them
// against bench/baselines/BENCH_fleet_sweep.json with a tight count
// tolerance and a loose timing tolerance).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bench_json_main.h"
#include "wsn/network.h"

namespace {

using namespace sid;

// Beacon horizon for the fleet benchmarks (sim seconds). Short enough to
// keep the 100k-node point tractable, long enough for several beacon
// rounds per node.
constexpr double kBeaconHorizonS = 20.0;

// Construction of a full self-healing field: range(0) is the grid side
// (nodes = side^2). The adjacency walks each node's square of grid
// offsets, so the build is O(N); the 100k-node point keeps it there.
void BM_FieldSetup(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  wsn::NetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  for (auto _ : state) {
    wsn::Network net(cfg);
    benchmark::DoNotOptimize(net.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(side * side));
  state.counters["nodes"] = static_cast<double>(side * side);
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
  const std::vector<std::int64_t> sides =
      smoke ? std::vector<std::int64_t>{10}
            : std::vector<std::int64_t>{10, 50, 100, 316};
  for (const std::int64_t side : sides) {
    benchmark::RegisterBenchmark("BM_FieldSetup", BM_FieldSetup)
        ->Arg(side)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
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
