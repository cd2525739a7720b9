// Input generation for the end-to-end benchmark (bench/e2e/README.md).
//
// Every input of a run is a pure function of the workload, its size
// preset and the --seed: ship tracks, fault and attack plans, and the
// traffic schedule. All randomness comes from util::Rng streams derived
// from the seed, so the same seed always yields the same inputs, and the
// program under test sees only the generated configs and schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "core/sid_system.h"
#include "shipwave/ship.h"
#include "wsn/messages.h"
#include "wsn/network.h"

namespace sid::e2e {

enum class Workload { kHarbor, kFleetFused, kDataplane, kChurn };

inline constexpr Workload kWorkloads[] = {Workload::kHarbor,
                                          Workload::kFleetFused,
                                          Workload::kDataplane,
                                          Workload::kChurn};

std::string_view workload_name(Workload workload);
std::optional<Workload> parse_workload(std::string_view name);

/// True for the workloads that run a whole core::SidSystem; the others
/// drive a bare wsn::Network plus wsn::ReliableTransport.
bool runs_sid_system(Workload workload);

/// Toy sizes (the e2e_bench_smoke ctest) or the benchmark's full sizes.
enum class Scale { kSmoke, kFull };

/// One SidSystem pass: a fresh system from `config`, run on `ships`.
struct SystemPass {
  core::SidSystemConfig config;
  std::vector<wake::ShipTrackConfig> ships;
  /// Sim seconds the event loop is configured to cover (sensing window
  /// plus the beacon slack for late protocol traffic).
  double horizon_s = 0.0;
};

/// Pass `pass` of a SidSystem workload; inputs derive from (seed, pass).
SystemPass system_pass(Workload workload, Scale scale, std::uint64_t seed,
                       std::size_t pass);

/// One reliable send the traffic generator issues at sim time `t_s`.
struct ScheduledSend {
  double t_s = 0.0;
  wsn::NodeId src = 0;
  wsn::NodeId dst = 0;
  /// A member's DetectionReport to its burst head, or a head's
  /// ClusterDecision to the sink.
  bool decision = false;
};

/// One rep of a network workload: the field and engine, the beacon
/// horizon (the sim seconds the rep covers; retries of the last sends may
/// run a few seconds past it), and the open-loop traffic schedule (sorted
/// by time).
struct NetworkRep {
  wsn::NetworkConfig network;
  double beacons_until_s = 0.0;
  std::vector<ScheduledSend> sends;
};

/// The rep of a network workload. Every rep of a run uses the same
/// inputs, so reps must produce bit-identical results.
NetworkRep network_rep(Workload workload, Scale scale, std::uint64_t seed);

}  // namespace sid::e2e
