#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "bench_common.h"
#include "util/rng.h"

namespace sid::e2e {

namespace {

// Stream ids under the run seed: one per kind of input, so adding draws to
// one kind never shifts another.
constexpr std::uint64_t kShipStream = 0x5817;
constexpr std::uint64_t kDisruptionStream = 0xd157;
constexpr std::uint64_t kTrafficStream = 0x7aff;
constexpr std::uint64_t kFaultStream = 0xfa17;
constexpr std::uint64_t kSeedStream = 0x5eed;

/// The seed of pass `pass` of a run seeded with `seed`.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return util::derive_seed(util::derive_seed(seed, kSeedStream), pass);
}

/// A random permutation of 0 .. n-1.
std::vector<std::size_t> permutation(util::Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::size_t>(rng.uniform_int(i))]);
  }
  return p;
}

/// A fishing boat at U[8, 16] kn and heading U[80, 100] deg crossing the
/// grid's row axis at a uniform point of its width (the paper's geometry).
wake::ShipTrackConfig random_crossing(util::Rng& rng, double width_m,
                                      double start_y_m, double start_time_s) {
  const double knots = rng.uniform(8.0, 16.0);
  const double heading_deg = rng.uniform(80.0, 100.0);
  const double cross_x = rng.uniform(0.0, width_m);
  return bench::crossing_ship(knots, heading_deg, cross_x, start_y_m,
                              start_time_s);
}

struct SystemSizes {
  std::size_t side = 6;
  double duration_s = 300.0;
  /// Where the ship starts, relative to the grid's first row.
  double start_y_m = -400.0;
};

SystemSizes system_sizes(Workload workload, Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  if (workload == Workload::kHarbor) {
    return smoke ? SystemSizes{4, 150.0, -150.0} : SystemSizes{6, 300.0};
  }
  return smoke ? SystemSizes{6, 150.0, -150.0}
               : SystemSizes{16, 200.0, -200.0};
}

/// The paper's deployment as `sid_cli scenario` runs it: calm sea,
/// accelerometer only, self-healing routing, no faults.
core::SidSystemConfig harbor_config(const SystemSizes& sizes,
                                    std::uint64_t seed) {
  core::SidSystemConfig cfg;
  cfg.network.rows = sizes.side;
  cfg.network.cols = sizes.side;
  cfg.network.seed = util::derive_seed(seed, 1);
  cfg.network.shards = 1;
  cfg.scenario.seed = util::derive_seed(seed, 2);
  cfg.scenario.trace.duration_s = sizes.duration_s;
  cfg.scenario.detector.threshold_multiplier_m = 2.0;
  cfg.scenario.detector.anomaly_frequency_threshold = 0.5;
  cfg.scenario.threads = 4;
  return cfg;
}

/// 5% of the non-sink nodes (at least one of each kind), round-robin over
/// decision forgers claiming every identity, acoustic-contact forgers,
/// replayers and crash-stops (the replication and forgery threat model of
/// Manjula & Chellappan).
void schedule_disruption(core::SidSystemConfig& cfg, std::uint64_t seed) {
  const std::size_t n = cfg.network.rows * cfg.network.cols;
  const double end_s = cfg.scenario.trace.duration_s;
  const auto count = std::max<std::size_t>(
      4, static_cast<std::size_t>(0.05 * static_cast<double>(n - 1) + 0.5));
  util::Rng rng(seed, kDisruptionStream);
  const std::vector<std::size_t> order = permutation(rng, n - 1);
  for (std::size_t i = 0; i < count; ++i) {
    const auto node = static_cast<wsn::NodeId>(order[i] + 1);  // not the sink
    switch (i % 4) {
      case 0: {
        wsn::ForgeryAttack atk;
        atk.attacker = node;
        atk.victim = wsn::kForgeAllIds;
        atk.target = 0;  // the sink
        atk.traffic = wsn::ForgedTraffic::kDecisions;
        atk.start_s = 20.0;
        atk.end_s = end_s;
        atk.period_s = 10.0;
        cfg.network.attacks.forgeries.push_back(atk);
        break;
      }
      case 1: {
        wsn::ForgeryAttack atk;
        atk.attacker = node;
        atk.victim = node;
        atk.target = 0;
        atk.traffic = wsn::ForgedTraffic::kAcousticContacts;
        atk.start_s = 20.0;
        atk.end_s = end_s;
        atk.period_s = 6.0;
        cfg.network.attacks.forgeries.push_back(atk);
        break;
      }
      case 2: {
        wsn::ReplayAttack atk;
        atk.attacker = node;
        atk.capture_start_s = 20.0;
        atk.capture_end_s = end_s;
        atk.replay_delay_s = 30.0;
        cfg.network.attacks.replays.push_back(atk);
        break;
      }
      default:
        cfg.network.faults.crashes.push_back({node, rng.uniform(30.0, end_s)});
        break;
    }
  }
}

struct NetworkSizes {
  std::size_t side = 100;
  double beacons_until_s = 50.0;
  double traffic_start_s = 5.0;
  double traffic_window_s = 20.0;
  /// Dataplane: cluster bursts per sim-s. Churn: sends per sim-s.
  double rate_per_s = 8.0;
};

NetworkSizes network_sizes(Workload workload, Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  if (workload == Workload::kDataplane) {
    return smoke ? NetworkSizes{12, 25.0, 5.0, 5.0, 2.0}
                 : NetworkSizes{100, 50.0, 5.0, 20.0, 8.0};
  }
  return smoke ? NetworkSizes{12, 30.0, 5.0, 15.0, 2.0}
               : NetworkSizes{100, 40.0, 5.0, 30.0, 5.0};
}

std::size_t event_count(const NetworkSizes& sizes) {
  return static_cast<std::size_t>(sizes.rate_per_s * sizes.traffic_window_s);
}

/// `count` arrival times, sorted: a Poisson process conditioned on its
/// count, so every seed offers the same amount of work.
std::vector<double> arrivals(util::Rng& rng, const NetworkSizes& sizes) {
  std::vector<double> times(event_count(sizes));
  for (double& t : times) {
    t = sizes.traffic_start_s + rng.uniform(0.0, sizes.traffic_window_s);
  }
  std::sort(times.begin(), times.end());
  return times;
}

/// `count` grid coordinates in [0, side), one per equal stratum in random
/// order (one axis of a Latin hypercube). Routing cost grows with the
/// distance a message travels, so stratifying positions gives every seed
/// the same spread of distances and therefore nearly the same work.
std::vector<std::int64_t> strata(util::Rng& rng, std::size_t count,
                                 std::size_t side) {
  std::vector<std::int64_t> out;
  for (const std::size_t s : permutation(rng, count)) {
    const double x = (static_cast<double>(s) + rng.uniform()) *
                     static_cast<double>(side) / static_cast<double>(count);
    out.push_back(std::min(static_cast<std::int64_t>(x),
                           static_cast<std::int64_t>(side) - 1));
  }
  return out;
}

void sort_by_time(std::vector<ScheduledSend>& sends) {
  std::stable_sort(sends.begin(), sends.end(),
                   [](const ScheduledSend& a, const ScheduledSend& b) {
                     return a.t_s < b.t_s;
                   });
}

/// SID-shaped many-to-one traffic: each burst has a head; 6-20 members
/// within +-3 rows/cols report to it over 10 s, and 12 s after the burst
/// the head sends its decision to the sink. Member counts cycle through
/// 6..20 in random order, so the number of sends barely depends on the
/// seed.
std::vector<ScheduledSend> cluster_bursts(const NetworkSizes& sizes,
                                          wsn::NodeId sink,
                                          std::uint64_t seed) {
  util::Rng rng(seed, kTrafficStream);
  const std::vector<double> times = arrivals(rng, sizes);
  const std::vector<std::int64_t> rows = strata(rng, times.size(), sizes.side);
  const std::vector<std::int64_t> cols = strata(rng, times.size(), sizes.side);
  const std::vector<std::size_t> sizes_order = permutation(rng, times.size());
  const auto side = static_cast<std::int64_t>(sizes.side);
  std::vector<ScheduledSend> sends;
  for (std::size_t b = 0; b < times.size(); ++b) {
    const auto head = static_cast<wsn::NodeId>(rows[b] * side + cols[b]);
    std::vector<wsn::NodeId> nearby;
    for (std::int64_t r = rows[b] - 3; r <= rows[b] + 3; ++r) {
      for (std::int64_t c = cols[b] - 3; c <= cols[b] + 3; ++c) {
        if (r < 0 || c < 0 || r >= side || c >= side) continue;
        const auto id = static_cast<wsn::NodeId>(r * side + c);
        if (id != head) nearby.push_back(id);
      }
    }
    const std::size_t members =
        std::min<std::size_t>(nearby.size(), 6 + sizes_order[b] % 15);
    for (std::size_t m = 0; m < members; ++m) {
      const auto pick = m + static_cast<std::size_t>(
                                rng.uniform_int(nearby.size() - m));
      std::swap(nearby[m], nearby[pick]);
      sends.push_back(
          {times[b] + rng.uniform(0.0, 10.0), nearby[m], head, false});
    }
    sends.push_back({times[b] + 12.0, head, sink, true});
  }
  sort_by_time(sends);
  return sends;
}

/// Uniform point-to-point reports: no destination sharing. Sources and
/// destinations are stratified in both grid axes.
std::vector<ScheduledSend> uniform_pairs(const NetworkSizes& sizes,
                                         std::uint64_t seed) {
  util::Rng rng(seed, kTrafficStream);
  const std::vector<double> times = arrivals(rng, sizes);
  const std::size_t n = times.size();
  const auto side = static_cast<std::int64_t>(sizes.side);
  const std::vector<std::int64_t> src_rows = strata(rng, n, sizes.side);
  const std::vector<std::int64_t> src_cols = strata(rng, n, sizes.side);
  const std::vector<std::int64_t> dst_rows = strata(rng, n, sizes.side);
  std::vector<std::int64_t> dst_cols = strata(rng, n, sizes.side);
  std::vector<ScheduledSend> sends;
  for (std::size_t i = 0; i < n; ++i) {
    if (src_rows[i] == dst_rows[i] && src_cols[i] == dst_cols[i]) {
      dst_cols[i] = (dst_cols[i] + 1) % side;
    }
    sends.push_back({times[i],
                     static_cast<wsn::NodeId>(src_rows[i] * side + src_cols[i]),
                     static_cast<wsn::NodeId>(dst_rows[i] * side + dst_cols[i]),
                     false});
  }
  return sends;
}

}  // namespace

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kHarbor:
      return "harbor_6x6";
    case Workload::kFleetFused:
      return "fleet_fused_16x16";
    case Workload::kDataplane:
      return "dataplane_100x100";
    case Workload::kChurn:
      return "churn_100x100";
  }
  std::abort();
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

bool runs_sid_system(Workload workload) {
  return workload == Workload::kHarbor || workload == Workload::kFleetFused;
}

SystemPass system_pass(Workload workload, Scale scale, std::uint64_t seed,
                       std::size_t pass) {
  const SystemSizes sizes = system_sizes(workload, scale);
  const std::uint64_t s = pass_seed(seed, pass);
  SystemPass out;
  out.config = harbor_config(sizes, s);
  const double width_m =
      static_cast<double>(sizes.side - 1) * out.config.network.spacing_m;
  util::Rng rng(s, kShipStream);
  out.ships.push_back(random_crossing(rng, width_m, sizes.start_y_m, 0.0));
  if (workload == Workload::kFleetFused) {
    out.ships.push_back(random_crossing(rng, width_m, sizes.start_y_m, 60.0));
    out.config.scenario.acoustic.enabled = true;
    out.config.scenario.acoustic.node_stride = 3;
    out.config.network.defense.enabled = true;
    out.config.network.shards = 4;
    schedule_disruption(out.config, s);
  }
  out.horizon_s = out.config.scenario.trace.duration_s +
                  out.config.resilience.beacon_horizon_slack_s;
  return out;
}

NetworkRep network_rep(Workload workload, Scale scale, std::uint64_t seed) {
  const NetworkSizes sizes = network_sizes(workload, scale);
  NetworkRep rep;
  rep.network.rows = sizes.side;
  rep.network.cols = sizes.side;
  rep.network.seed = util::derive_seed(seed, 1);
  rep.network.shards = 4;
  rep.beacons_until_s = sizes.beacons_until_s;
  if (workload == Workload::kDataplane) {
    rep.sends = cluster_bursts(sizes, rep.network.sink_node, seed);
    return rep;
  }
  // Churn: 10% crash-stops, channel-wide Gilbert-Elliott bursts and one
  // 10 s congestion window over uniform point-to-point traffic.
  const std::size_t n = sizes.side * sizes.side;
  util::Rng rng(seed, kFaultStream);
  const std::vector<std::size_t> order = permutation(rng, n - 1);
  for (std::size_t i = 0; i < n / 10; ++i) {
    // Node 0 is the sink and never crashes.
    rep.network.faults.crashes.push_back(
        {static_cast<wsn::NodeId>(order[i] + 1),
         rng.uniform(5.0, sizes.beacons_until_s)});
  }
  rep.network.faults.all_links_burst = wsn::GilbertElliottParams{};
  const double congestion_start =
      sizes.traffic_start_s + 0.5 * (sizes.traffic_window_s - 10.0);
  rep.network.faults.congestion.push_back(
      {congestion_start, congestion_start + 10.0, 0.3});
  rep.sends = uniform_pairs(sizes, seed);
  return rep;
}

}  // namespace sid::e2e
