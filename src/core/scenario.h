// Scenario generation: ties the synthetic substrates together.
//
// A scenario is a sea state, a grid of buoy-mounted nodes, and zero or
// more ship passes. simulate_node_reports() produces, for every node, the
// trace its accelerometer records and the alarms/detection reports its
// node-level detector raises — the common front half of every evaluation
// (Fig. 11, Tables I/II, Fig. 12) and of the full protocol simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "acoustic/hydrophone.h"
#include "core/node_detector.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace.h"
#include "shipwave/ship.h"
#include "shipwave/wave_train.h"
#include "util/geometry.h"
#include "wsn/messages.h"
#include "wsn/network.h"

namespace sid::core {

/// Opt-in multi-modal sensing: a configurable subset of buoys carries a
/// hydrophone alongside the accelerometer. Strictly opt-in — disabled
/// (the default), no hydrophone exists, no acoustic RNG stream is drawn,
/// and runs stay bit-identical to the accel-only pipeline.
struct AcousticSensingConfig {
  bool enabled = false;
  /// Every node with id % node_stride == 0 carries a hydrophone (1 =
  /// every buoy). Sparse by default: hydrophones are the expensive
  /// sensor, and the fused pipeline only needs modality coverage, not
  /// density.
  std::size_t node_stride = 3;
  /// Shared detector model; each hydrophone derives its own RNG stream
  /// from (scenario seed, node id), never from this config's seed.
  /// SidSystem thins what a node reports to one contact per
  /// kMinContactIntervalS (core/sid_system.h).
  acoustic::HydrophoneConfig hydrophone;
};

struct ScenarioConfig {
  /// Default: calm harbor water — the paper's deployment site; rougher
  /// presets exercise the adaptive threshold (ablation bench).
  ocean::SeaState sea_state = ocean::SeaState::kCalm;
  ocean::WaveFieldConfig wave_field;  ///< seed/spreading overrides
  wake::WakeTrainConfig wake;
  NodeDetectorConfig detector;
  sense::TraceConfig trace;           ///< duration, buoy, accel templates
  std::uint64_t seed = 1;
  /// Multi-modal sensing (default off: accel-only, bit-identical to the
  /// single-modality pipeline).
  AcousticSensingConfig acoustic;
  /// Worker threads for per-node synthesis + detection (1 = serial).
  /// Bit-identical to serial at any count: every node derives its RNG
  /// streams from (seed, node id) alone and writes a disjoint output slot,
  /// so the schedule cannot influence results (DESIGN.md §5g; enforced by
  /// the determinism suite).
  std::size_t threads = 1;
};

/// Everything one node produced during a scenario run.
struct NodeRun {
  wsn::NodeId node = 0;
  /// Trace samples synthesized, every one of which the detector processed.
  std::size_t samples = 0;
  std::vector<Alarm> alarms;                   ///< true-time alarms
  std::vector<wsn::DetectionReport> reports;   ///< local-clock reports
  /// Hydrophone contacts (true time), after acoustic fault application.
  /// Empty unless the node carries a hydrophone (AcousticSensingConfig).
  std::vector<acoustic::AcousticContact> contacts;
};

/// Per-node ground truth for evaluation.
struct NodeTruth {
  wsn::NodeId node = 0;
  /// Wake-front arrival times at this node (true time), one per ship that
  /// reached it.
  std::vector<double> wake_arrivals;
};

struct ScenarioRun {
  std::vector<NodeRun> node_runs;
  std::vector<NodeTruth> truths;

  /// All reports across nodes, flattened.
  std::vector<wsn::DetectionReport> all_reports() const;
  std::size_t total_alarms() const;
  std::size_t total_contacts() const;
};

/// True when `node` carries a hydrophone under `config` (the id-stride
/// subset; false whenever acoustic sensing is disabled).
bool carries_hydrophone(const AcousticSensingConfig& config, wsn::NodeId node);

/// Runs the sensing + node-detection front end for every node of
/// `network` against the given ships. Does not touch the radio; the
/// reports carry node-local timestamps ready for protocol simulation or
/// direct cluster evaluation.
ScenarioRun simulate_node_reports(const wsn::Network& network,
                                  std::span<const wake::ShipTrackConfig> ships,
                                  const ScenarioConfig& config);

/// True when `alarm` matches a ground-truth wake arrival: onset within
/// [arrival - tolerance, arrival + tolerance + tail_window]. The tail
/// window admits alarms raised by the transverse wash that follows the
/// front (still ship-caused); Fig. 11 uses tail_window 0 to score only
/// front detections.
bool alarm_matches_truth(const Alarm& alarm,
                         std::span<const double> wake_arrivals,
                         double tolerance_s, double tail_window_s = 0.0);

}  // namespace sid::core
