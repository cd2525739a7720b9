// speed_trap: the Fig. 10 scenario — four nodes, one crossing ship,
// recover its speed from wake-arrival timestamps alone (Eq. 14-16).
//
// The example runs the whole measurement chain (sea + wake + buoy +
// detector) for several ship speeds and compares the Eq. 16 inversion
// against ground truth, with the clean analytic timestamps as a
// reference.
//
//   $ ./speed_trap [speed_knots...]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/scenario.h"
#include "core/speed_estimator.h"
#include "util/units.h"
#include "wsn/network.h"

namespace {

/// Clean inversion: analytic wake-arrival times, no sensing noise.
void analytic_reference(double speed_knots, double heading_deg) {
  using namespace sid;
  const double v = util::knots_to_mps(speed_knots);
  const double phi = util::deg_to_rad(heading_deg);
  wake::ShipTrackConfig cfg;
  cfg.start = {12.5 - 200.0 / std::tan(phi), -200.0};
  cfg.heading_rad = phi;
  cfg.speed_mps = v;
  const wake::ShipTrack track(cfg);
  core::SpeedQuad quad;
  quad.t1 = track.wake_arrival_time({0.0, 0.0});
  quad.t2 = track.wake_arrival_time({0.0, 25.0});
  quad.t3 = track.wake_arrival_time({25.0, 0.0});
  quad.t4 = track.wake_arrival_time({25.0, 25.0});
  const auto est =
      core::estimate_speed_either_pairing(quad, /*node_spacing_m=*/25.0);
  if (est) {
    std::printf("  analytic timestamps: %.2f kn (error %+.1f %%)\n",
                est->speed_knots,
                100.0 * (est->speed_knots - speed_knots) / speed_knots);
  } else {
    std::printf("  analytic timestamps: no estimate\n");
  }
}

/// Full pipeline: synthetic sea, wandering track, detector onsets.
void full_pipeline(double speed_knots, double heading_deg,
                   std::uint64_t seed) {
  using namespace sid;
  wsn::NetworkConfig net_cfg;
  net_cfg.rows = 6;
  net_cfg.cols = 6;
  wsn::Network network(net_cfg);

  core::ScenarioConfig scen;
  scen.seed = seed;
  scen.trace.duration_s = 260.0;
  scen.detector.threshold_multiplier_m = 2.0;
  scen.detector.anomaly_frequency_threshold = 0.5;

  const double phi = util::deg_to_rad(heading_deg);
  wake::ShipTrackConfig ship;
  ship.start = {62.5 + 400.0 / std::tan(phi) * -1.0, -400.0};
  ship.heading_rad = phi;
  ship.speed_mps = util::knots_to_mps(speed_knots);
  ship.wander_amplitude_m = 2.0;  // "not really a straight line"

  const std::vector<wake::ShipTrackConfig> ships{ship};
  const auto run = core::simulate_node_reports(network, ships, scen);

  std::vector<wsn::DetectionReport> matched;
  for (std::size_t i = 0; i < run.node_runs.size(); ++i) {
    for (std::size_t a = 0; a < run.node_runs[i].alarms.size(); ++a) {
      if (core::alarm_matches_truth(run.node_runs[i].alarms[a],
                                    run.truths[i].wake_arrivals, 6.0)) {
        matched.push_back(run.node_runs[i].reports[a]);
      }
    }
  }
  const auto quad = core::select_speed_quad(matched);
  if (!quad) {
    std::printf("  full pipeline:       no complete 2x2 block detected\n");
    return;
  }
  const auto est =
      core::estimate_speed_either_pairing(*quad, net_cfg.spacing_m);
  if (!est) {
    std::printf("  full pipeline:       inversion rejected the quad\n");
    return;
  }
  std::printf("  full pipeline:       %.2f kn (error %+.1f %%, alpha "
              "%.0f deg)\n",
              est->speed_knots,
              100.0 * (est->speed_knots - speed_knots) / speed_knots,
              util::rad_to_deg(est->alpha_rad));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<double> speeds;
  for (int i = 1; i < argc; ++i) speeds.push_back(std::atof(argv[i]));
  if (speeds.empty()) speeds = {10.0, 16.0};

  std::printf("speed_trap: Eq. 16 inversion, D = 25 m, theta = 20 deg\n");
  for (double speed : speeds) {
    if (speed <= 0.0) {
      std::printf("skipping bad speed argument\n");
      continue;
    }
    std::printf("\nactual speed %.1f kn, heading 87 deg:\n", speed);
    analytic_reference(speed, 87.0);
    full_pipeline(speed, 87.0, static_cast<std::uint64_t>(speed * 100));
  }
  return 0;
}
