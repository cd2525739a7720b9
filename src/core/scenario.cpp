#include "core/scenario.h"

#include <algorithm>
#include <cmath>

#include "obs/profile.h"
#include "obs/span.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace sid::core {

namespace {

/// Translates a wsn-level sensor fault schedule into the sensing-layer
/// config (the two libraries are independent; core glues them).
sense::SensorFaultConfig to_sensing_fault(const wsn::SensorFaultSpec& spec) {
  sense::SensorFaultConfig fault;
  switch (spec.kind) {
    case wsn::SensorFaultKind::kStuckAt:
      fault.mode = sense::SensorFaultMode::kStuckAt;
      break;
    case wsn::SensorFaultKind::kGainDrift:
      fault.mode = sense::SensorFaultMode::kGainDrift;
      fault.gain_drift_per_s = spec.gain_drift_per_s;
      break;
    case wsn::SensorFaultKind::kSaturation:
      fault.mode = sense::SensorFaultMode::kSaturation;
      fault.saturation_g = spec.saturation_g;
      break;
  }
  fault.start_s = spec.start_s;
  return fault;
}

/// Applies a wsn-level acoustic fault schedule to a node's contact list
/// (the hydrophone analogue of to_sensing_fault: the two libraries are
/// independent; core glues them). Fault randomness draws from a dedicated
/// per-node stream derived from (seed, node) — touched only when the node
/// actually has an acoustic fault, so fault-free nodes (and fault-free
/// runs) draw nothing extra.
std::vector<acoustic::AcousticContact> apply_acoustic_fault(
    std::vector<acoustic::AcousticContact> contacts,
    const wsn::AcousticFaultSpec& spec, std::uint64_t seed, double t0,
    double duration_s) {
  util::Rng rng(seed);
  switch (spec.kind) {
    case wsn::AcousticFaultKind::kContactDropout: {
      // A flaky hydrophone channel loses contacts independently.
      std::vector<acoustic::AcousticContact> kept;
      kept.reserve(contacts.size());
      for (const auto& c : contacts) {
        if (c.time_s >= spec.start_s && rng.bernoulli(spec.drop_fraction)) {
          continue;
        }
        kept.push_back(c);
      }
      return kept;
    }
    case wsn::AcousticFaultKind::kGainDrift: {
      // Preamp gain drifting up inflates every reported SNR — surviving
      // contacts look too loud (the sink's sonar-equation ceiling is the
      // backstop against runaway drift).
      for (auto& c : contacts) {
        if (c.time_s >= spec.start_s) {
          c.snr_db += spec.gain_drift_db_per_s * (c.time_s - spec.start_s);
        }
      }
      return contacts;
    }
    case wsn::AcousticFaultKind::kClutterStorm: {
      // Poisson burst of clutter contacts (rain, chains, shrimp) across
      // [start_s, end_s], merged into the legitimate stream in time order.
      const double window_start = std::max(spec.start_s, t0);
      const double window_end = std::min(spec.end_s, t0 + duration_s);
      const double rate_per_s = spec.clutter_rate_per_hour / 3600.0;
      double t = window_start;
      while (rate_per_s > 0.0) {
        t += rng.exponential(rate_per_s);
        if (t >= window_end) break;
        acoustic::AcousticContact c;
        c.time_s = t;
        c.snr_db = rng.uniform(6.0, 12.0);
        c.clutter = true;
        contacts.push_back(c);
      }
      std::sort(contacts.begin(), contacts.end(),
                [](const acoustic::AcousticContact& a,
                   const acoustic::AcousticContact& b) {
                  return a.time_s < b.time_s;
                });
      return contacts;
    }
  }
  return contacts;
}

}  // namespace

bool carries_hydrophone(const AcousticSensingConfig& config,
                        wsn::NodeId node) {
  if (!config.enabled) return false;
  util::require(config.node_stride >= 1,
                "AcousticSensingConfig: node stride must be >= 1");
  return node % config.node_stride == 0;
}

std::vector<wsn::DetectionReport> ScenarioRun::all_reports() const {
  std::vector<wsn::DetectionReport> out;
  for (const auto& run : node_runs) {
    out.insert(out.end(), run.reports.begin(), run.reports.end());
  }
  return out;
}

std::size_t ScenarioRun::total_alarms() const {
  std::size_t n = 0;
  for (const auto& run : node_runs) n += run.alarms.size();
  return n;
}

std::size_t ScenarioRun::total_contacts() const {
  std::size_t n = 0;
  for (const auto& run : node_runs) n += run.contacts.size();
  return n;
}

ScenarioRun simulate_node_reports(const wsn::Network& network,
                                  std::span<const wake::ShipTrackConfig> ships,
                                  const ScenarioConfig& config) {
  util::require(config.trace.duration_s > 0.0,
                "simulate_node_reports: duration must be positive");

  // One shared ocean field: nodes see spatially correlated swell.
  const auto spectrum = ocean::make_sea_spectrum(config.sea_state);
  ocean::WaveFieldConfig field_cfg = config.wave_field;
  field_cfg.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
  const ocean::WaveField field(*spectrum, field_cfg);

  std::vector<wake::ShipTrack> tracks;
  tracks.reserve(ships.size());
  for (const auto& ship_cfg : ships) tracks.emplace_back(ship_cfg);

  const auto& nodes = network.nodes();
  ScenarioRun run;
  run.node_runs.resize(nodes.size());
  run.truths.resize(nodes.size());

  // Each index is a pure function of (config, network, index): RNG streams
  // derive from (seed, node id) only, the shared wave field / tracks are
  // read-only, and node i writes only slots i of the two output vectors —
  // so any thread schedule produces bit-identical results (DESIGN.md §5g).
  const auto simulate_one = [&](std::size_t i) {
    const auto& info = nodes[i];

    // Wake trains this node will see.
    std::vector<wake::WakeTrain> trains;
    NodeTruth truth;
    truth.node = info.id;
    for (const auto& track : tracks) {
      if (auto train = wake::make_wake_train(track, info.anchor,
                                             config.wake)) {
        if (train->params().arrival_time_s <=
            config.trace.start_time_s + config.trace.duration_s) {
          truth.wake_arrivals.push_back(train->params().arrival_time_s);
          trains.push_back(std::move(*train));
        }
      }
    }

    // Per-node trace: distinct buoy/sensor noise streams.
    sense::TraceConfig trace_cfg = config.trace;
    trace_cfg.buoy.anchor = info.anchor;
    trace_cfg.buoy.seed = config.seed * 7919ULL + info.id * 2ULL + 1ULL;
    trace_cfg.accel.seed = config.seed * 104729ULL + info.id * 2ULL;
    if (const auto spec = network.faults().sensor_fault(info.id)) {
      trace_cfg.fault = to_sensing_fault(*spec);
    }
    const auto trace = [&] {
      SID_PROFILE_STAGE(obs::Stage::kSynthesis);
      return sense::generate_trace(field, trains, trace_cfg);
    }();

    NodeDetector detector(config.detector);
    NodeRun node_run;
    node_run.node = info.id;
    node_run.samples = trace.size();
    node_run.alarms = [&] {
      SID_PROFILE_STAGE(obs::Stage::kDetector);
      return detector.process_trace(trace);
    }();

    node_run.reports.reserve(node_run.alarms.size());
    for (std::size_t a = 0; a < node_run.alarms.size(); ++a) {
      const auto& alarm = node_run.alarms[a];
      wsn::DetectionReport report;
      report.reporter = info.id;
      report.position = info.anchor;  // believed position
      report.onset_local_time_s = info.clock.local_time(alarm.onset_time_s);
      report.anomaly_frequency = alarm.anomaly_frequency;
      report.average_energy = alarm.average_energy;
      report.peak_energy = alarm.peak_energy;
      report.grid_row = info.grid_row;
      report.grid_col = info.grid_col;
      // Causal trace id from (seed, node, per-node alarm index): pure
      // function of the configuration, so any worker count stamps the
      // same ids (obs/span.h).
      report.trace_id = obs::derive_trace_id(config.seed, info.id,
                                             static_cast<std::uint64_t>(a),
                                             obs::SpanKind::kReport);
      node_run.reports.push_back(report);
    }

    // Multi-modal path: the hydrophone subset also runs the acoustic
    // detector against the same tracks. Distinct prime multiplier keeps
    // the per-node acoustic stream independent of the buoy (7919) and
    // accel (104729) streams; drawn only when the node carries a
    // hydrophone, so accel-only runs stay bit-identical.
    if (carries_hydrophone(config.acoustic, info.id)) {
      acoustic::HydrophoneConfig hydro_cfg = config.acoustic.hydrophone;
      hydro_cfg.seed = config.seed * 15485863ULL + info.id * 2ULL + 1ULL;
      acoustic::Hydrophone hydrophone(info.anchor, hydro_cfg);
      node_run.contacts = [&] {
        SID_PROFILE_STAGE(obs::Stage::kSynthesis);
        return hydrophone.run(tracks, config.trace.start_time_s,
                              config.trace.duration_s, config.sea_state);
      }();
      if (const auto spec = network.faults().acoustic_fault(info.id)) {
        node_run.contacts = apply_acoustic_fault(
            std::move(node_run.contacts), *spec,
            config.seed * 6700417ULL + info.id, config.trace.start_time_s,
            config.trace.duration_s);
      }
    }

    run.node_runs[i] = std::move(node_run);
    run.truths[i] = std::move(truth);
  };

  if (config.threads <= 1) {
    for (std::size_t i = 0; i < nodes.size(); ++i) simulate_one(i);
  } else {
    util::ThreadPool pool(config.threads);
    pool.parallel_for(nodes.size(), simulate_one);
  }
  return run;
}

bool alarm_matches_truth(const Alarm& alarm,
                         std::span<const double> wake_arrivals,
                         double tolerance_s, double tail_window_s) {
  util::require(tolerance_s >= 0.0,
                "alarm_matches_truth: tolerance must be non-negative");
  util::require(tail_window_s >= 0.0,
                "alarm_matches_truth: tail window must be non-negative");
  for (double arrival : wake_arrivals) {
    if (alarm.onset_time_s >= arrival - tolerance_s &&
        alarm.onset_time_s <= arrival + tolerance_s + tail_window_s) {
      return true;
    }
  }
  return false;
}

}  // namespace sid::core
