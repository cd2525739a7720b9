// sid_cli: command-line front end for the library — simulate traces,
// detect on recorded traces, and run full scenarios without writing C++.
//
//   sid_cli simulate --out trace.sidb [--ship-knots 10] [--cpa 25]
//                    [--duration 240] [--sea calm|moderate|rough]
//                    [--seed 1] [--csv]
//   sid_cli detect --in trace.sidb [--m 2.0] [--af 0.5]
//   sid_cli scenario [--ship-knots 10] [--heading 88] [--rows 6]
//                    [--cols 6] [--seed 1] [--threads 1] [--shards 1]
//                    [--duration 300] [--m 2.0] [--af 0.5]
//                    [--metrics-out metrics.json]
//                    [--trace-out trace.jsonl] [--trace-categories net,sink]
//                    [--telemetry-out telemetry.jsonl]
//                    [--telemetry-interval 5]
//                    [--flightrec-out flightrec.jsonl]
//
// `simulate` writes a synthetic buoy recording (SIDB binary, or CSV with
// --csv); `detect` runs the paper's node-level detector over any trace
// file (including converted real recordings); `scenario` runs the whole
// distributed pipeline and prints the sink log.
//
// Count flags (--rows, --cols, --seed, --threads, --shards) take plain
// decimal integers within the limits the usage text states. Real-valued
// flags take finite decimal numbers in closed ranges:
//   --ship-knots 0..60 (0 = no ship)   --cpa 0..1000 m
//   --duration 1..3600 s               --heading 10..170 deg
//   --m 0.1..10                        --af 0.01..1
//   --telemetry-interval 0.1..3600 s
// Anything else (including nan and inf) is an error (exit 2), reported
// before any trace or field is built.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/node_detector.h"
#include "core/sid_system.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ocean/wave_field.h"
#include "ocean/wave_spectrum.h"
#include "sensing/trace_io.h"
#include "shipwave/wave_train.h"
#include "util/error.h"
#include "util/units.h"

namespace {

using namespace sid;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const {
    return options.contains(name);
  }
  std::string str(const std::string& name, const std::string& fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  /// A real-valued flag in [lo, hi]. The whole value must parse as a
  /// decimal number, and NaN and infinities fail the finite closed range,
  /// so a bad value throws before anything is sized from it.
  double real(const std::string& name, double fallback, double lo,
              double hi) const {
    auto it = options.find(name);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    double value = 0.0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || !(lo <= value && value <= hi)) {
      char range[64];
      std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
      throw util::InvalidArgument("--" + name + " must be a number in " +
                                  range + ", got '" + text + "'");
    }
    return value;
  }
  /// An integer flag in [min, max]. Only plain decimal digits parse, so a
  /// negative, fractional, non-numeric or too-large value throws before
  /// anything is sized from it.
  std::uint64_t count(const std::string& name, std::uint64_t fallback,
                      std::uint64_t min, std::uint64_t max) const {
    auto it = options.find(name);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    const char* end = text.data() + text.size();
    std::uint64_t value = 0;
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc{} || stop != end || value < min || value > max) {
      throw util::InvalidArgument("--" + name + " must be an integer in [" +
                                  std::to_string(min) + ", " +
                                  std::to_string(max) + "], got '" + text +
                                  "'");
    }
    return value;
  }
};

// Limits of the count flags. Each thread or shard costs an OS thread or a
// shard's state, and a grid side beyond 1000 is a million-buoy field.
constexpr std::uint64_t kMaxGridSide = 1000;
constexpr std::uint64_t kMaxThreads = 256;
constexpr std::uint64_t kMaxShards = 256;
constexpr std::uint64_t kMaxSeed = std::numeric_limits<std::uint64_t>::max();

// Ranges of the real-valued flags. A duration sizes every trace (50 Hz per
// axis per node), the heading must carry the ship across the field from
// the south, and a telemetry tick is one scheduled event.
constexpr double kMaxShipKnots = 60.0;
constexpr double kMaxCpaM = 1000.0;
constexpr double kMinDurationS = 1.0;
constexpr double kMaxDurationS = 3600.0;
constexpr double kMinHeadingDeg = 10.0;
constexpr double kMaxHeadingDeg = 170.0;
constexpr double kMinM = 0.1;
constexpr double kMaxM = 10.0;
constexpr double kMinAf = 0.01;
constexpr double kMinTelemetryIntervalS = 0.1;
constexpr double kMaxTelemetryIntervalS = 3600.0;

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    std::string key(arg.substr(2));
    // Flags without a value get "1". Built as a fresh string and
    // move-assigned: assigning a char* into the map's string trips a GCC 12
    // -O3 -Wrestrict false positive (GCC bug 105329).
    std::string value = "1";
    if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--")) {
      value = argv[++i];
    }
    args.options[std::move(key)] = std::move(value);
  }
  return args;
}

ocean::SeaState parse_sea(const std::string& name) {
  if (name == "calm") return ocean::SeaState::kCalm;
  if (name == "moderate") return ocean::SeaState::kModerate;
  if (name == "rough") return ocean::SeaState::kRough;
  throw util::InvalidArgument("unknown sea state: " + name);
}

int cmd_simulate(const Args& args) {
  const std::string out = args.str("out", "trace.sidb");
  const double knots = args.real("ship-knots", 10.0, 0.0, kMaxShipKnots);
  const double cpa = args.real("cpa", 25.0, 0.0, kMaxCpaM);
  const double duration =
      args.real("duration", 240.0, kMinDurationS, kMaxDurationS);
  const auto sea = parse_sea(args.str("sea", "calm"));
  const std::uint64_t seed = args.count("seed", 1, 0, kMaxSeed);

  const auto spectrum = ocean::make_sea_spectrum(sea);
  ocean::WaveFieldConfig field_cfg;
  field_cfg.seed = seed;
  const ocean::WaveField field(*spectrum, field_cfg);

  std::vector<wake::WakeTrain> trains;
  if (knots > 0.0) {
    wake::ShipTrackConfig ship;
    ship.start = {0.0, -400.0};
    ship.heading_rad = util::deg_to_rad(90.0);
    ship.speed_mps = util::knots_to_mps(knots);
    if (auto train =
            wake::make_wake_train(wake::ShipTrack(ship), {cpa, 0.0})) {
      std::printf("wake front arrives at t = %.1f s\n",
                  train->params().arrival_time_s);
      trains.push_back(*train);
    }
  }

  sense::TraceConfig trace_cfg;
  trace_cfg.duration_s = duration;
  trace_cfg.buoy.anchor = {cpa, 0.0};
  trace_cfg.buoy.seed = seed + 1;
  trace_cfg.accel.seed = seed + 2;
  const auto trace = sense::generate_trace(field, trains, trace_cfg);

  if (args.flag("csv")) {
    sense::write_trace_csv(trace, out);
  } else {
    sense::write_trace_binary(trace, out);
  }
  std::printf("wrote %s (%zu samples, %.0f s at %.0f Hz)\n", out.c_str(),
              trace.size(), trace.duration_s(), trace.sample_rate_hz);
  return 0;
}

int cmd_detect(const Args& args) {
  const double m = args.real("m", 2.0, kMinM, kMaxM);
  const double af = args.real("af", 0.5, kMinAf, 1.0);
  const std::string in = args.str("in", "trace.sidb");
  const auto trace = in.size() > 4 && in.substr(in.size() - 4) == ".csv"
                         ? sense::read_trace_csv(in)
                         : sense::read_trace_binary(in);
  std::printf("loaded %s: %zu samples at %.0f Hz\n", in.c_str(), trace.size(),
              trace.sample_rate_hz);

  core::NodeDetectorConfig cfg;
  cfg.sample_rate_hz = trace.sample_rate_hz;
  cfg.threshold_multiplier_m = m;
  cfg.anomaly_frequency_threshold = af;
  core::NodeDetector detector(cfg);
  const auto alarms = detector.process_trace(trace);
  if (alarms.empty()) {
    std::puts("no detections");
    return 1;
  }
  for (const auto& alarm : alarms) {
    const bool truth_known = !trace.wake_intervals.empty();
    const bool matched =
        truth_known &&
        [&] {
          for (const auto& [start, end] : trace.wake_intervals) {
            if (alarm.onset_time_s >= start - 5.0 &&
                alarm.onset_time_s <= end + 30.0) {
              return true;
            }
          }
          return false;
        }();
    std::printf("ALARM onset=%.1fs af=%.0f%% peak=%.0f%s\n",
                alarm.onset_time_s, 100.0 * alarm.anomaly_frequency,
                alarm.peak_energy,
                !truth_known ? "" : (matched ? "  [matches ship]"
                                             : "  [false alarm]"));
  }
  return 0;
}

int cmd_scenario(const Args& args) {
  core::SidSystemConfig cfg;
  cfg.network.rows = args.count("rows", 6, 1, kMaxGridSide);
  cfg.network.cols = args.count("cols", 6, 1, kMaxGridSide);
  cfg.scenario.seed = args.count("seed", 1, 0, kMaxSeed);
  cfg.scenario.trace.duration_s =
      args.real("duration", 300.0, kMinDurationS, kMaxDurationS);
  cfg.scenario.detector.threshold_multiplier_m =
      args.real("m", 2.0, kMinM, kMaxM);
  cfg.scenario.detector.anomaly_frequency_threshold =
      args.real("af", 0.5, kMinAf, 1.0);
  // Worker threads for the synthesis/detection front end. Results are
  // bit-identical at any count (core/scenario.h), so this is purely a
  // wall-clock knob.
  cfg.scenario.threads = args.count("threads", 1, 0, kMaxThreads);
  // Spatial shards for the network's beacon plane. Runs are bit-identical
  // for every K (CI byte-compares --shards 1 vs 4, like --threads above).
  cfg.network.shards = args.count("shards", 1, 1, kMaxShards);

  const double knots = args.real("ship-knots", 10.0, 0.0, kMaxShipKnots);
  const double heading =
      args.real("heading", 88.0, kMinHeadingDeg, kMaxHeadingDeg);
  obs::TelemetryConfig telemetry_cfg;
  telemetry_cfg.interval_s =
      args.real("telemetry-interval", 5.0, kMinTelemetryIntervalS,
                kMaxTelemetryIntervalS);
  std::vector<wake::ShipTrackConfig> ships;
  if (knots > 0.0) {
    const double phi = util::deg_to_rad(heading);
    wake::ShipTrackConfig ship;
    const double cross_x =
        static_cast<double>(cfg.network.cols - 1) * 12.5;
    ship.start = {cross_x - 400.0 / std::tan(phi), -400.0};
    ship.heading_rad = phi;
    ship.speed_mps = util::knots_to_mps(knots);
    ships.push_back(ship);
  }

  core::SidSystem system(cfg);
  const std::string trace_out = args.str("trace-out", "");
  if (!trace_out.empty()) {
    system.tracer().open(
        trace_out,
        obs::parse_category_list(args.str("trace-categories", "all")));
  }
  const std::string telemetry_out = args.str("telemetry-out", "");
  if (!telemetry_out.empty()) system.enable_telemetry(telemetry_cfg);
  const std::string flightrec_out = args.str("flightrec-out", "");
  if (!flightrec_out.empty()) {
    // Arm crash dumping too: on SID_CHECK failure the recorder writes the
    // last events to this file before the abort.
    system.flight_recorder().set_auto_dump_path(flightrec_out);
    system.flight_recorder().install_crash_dump(flightrec_out);
  }
  const auto result = system.run(ships);
  const std::uint64_t trace_events = system.tracer().events_emitted();
  if (!trace_out.empty()) system.tracer().close();

  const std::string metrics_out = args.str("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream os(metrics_out);
    if (!os) {
      throw util::InvalidArgument("cannot open metrics file: " + metrics_out);
    }
    system.registry().write_json(os, /*include_wall=*/true,
                                 &obs::profile_registry());
    os << '\n';
  }

  if (!telemetry_out.empty()) {
    std::ofstream os(telemetry_out);
    if (!os) {
      throw util::InvalidArgument("cannot open telemetry file: " +
                                  telemetry_out);
    }
    if (const auto* sampler = system.telemetry()) sampler->dump_jsonl(os);
  }
  if (!flightrec_out.empty()) {
    system.flight_recorder().dump_to_file(flightrec_out, "end_of_run");
  }

  // One-line observability digest on stderr (stdout stays the sink log).
  const auto& synthesis_h = obs::stage_histogram(obs::Stage::kSynthesis);
  const auto& detector_h = obs::stage_histogram(obs::Stage::kDetector);
  const auto& dispatch_h = obs::stage_histogram(obs::Stage::kEventDispatch);
  const auto& routing_h = obs::stage_histogram(obs::Stage::kRouting);
  const auto counter = [&system](std::string_view name) {
    const obs::Counter* c = system.registry().find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const double searches = counter("net.route_searches");
  const double links_per_search =
      searches > 0.0 ? counter("net.route_links_examined") / searches : 0.0;
  std::fprintf(
      stderr,
      "[obs] alarms=%zu sink_decisions=%zu drops=%llu trace_events=%llu "
      "synthesis p50=%.2fms p99=%.2fms detector p50=%.2fms p99=%.2fms "
      "dispatch p50=%.1fus p99=%.1fus routing p50=%.1fus p99=%.1fus "
      "links/search=%.1f\n",
      result.alarms_raised, result.sink_reports.size(),
      static_cast<unsigned long long>(result.network_stats.unicasts_dropped),
      static_cast<unsigned long long>(trace_events),
      synthesis_h.percentile(0.50) / 1e6, synthesis_h.percentile(0.99) / 1e6,
      detector_h.percentile(0.50) / 1e6, detector_h.percentile(0.99) / 1e6,
      dispatch_h.percentile(0.50) / 1e3, dispatch_h.percentile(0.99) / 1e3,
      routing_h.percentile(0.50) / 1e3, routing_h.percentile(0.99) / 1e3,
      links_per_search);
  std::printf("alarms=%zu clusters=%zu cancelled=%zu sink_reports=%zu\n",
              result.alarms_raised, result.clusters_formed,
              result.clusters_cancelled, result.sink_reports.size());
  for (const auto& r : result.sink_reports) {
    std::printf("  t=%7.1f head=%-3u C=%.2f R2=%.2f n=%-3zu %s",
                r.sink_time_s, r.decision.head, r.decision.correlation,
                r.decision.sweep_consistency, r.decision.report_count,
                r.decision.intrusion ? "INTRUSION" : "-");
    if (r.decision.estimated_speed_mps > 0.0) {
      std::printf(" %.1f kn",
                  util::mps_to_knots(r.decision.estimated_speed_mps));
    }
    std::printf("\n");
  }
  std::printf("verdict: %s\n", result.intrusion_reported()
                                   ? "INTRUSION REPORTED"
                                   : "no intrusion");
  return result.intrusion_reported() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "detect") return cmd_detect(args);
    if (args.command == "scenario") return cmd_scenario(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: sid_cli simulate|detect|scenario [options]\n"
               "  simulate --out FILE [--ship-knots KN] [--cpa M] "
               "[--duration S] [--sea calm|moderate|rough] [--seed N] "
               "[--csv]\n"
               "  detect   --in FILE [--m M] [--af F]\n"
               "  scenario [--ship-knots KN] [--heading DEG] [--rows R] "
               "[--cols C] [--seed N] [--threads T] [--shards K] "
               "[--duration S] [--m M] [--af F] "
               "[--metrics-out FILE] "
               "[--trace-out FILE] [--trace-categories LIST] "
               "[--telemetry-out FILE] [--telemetry-interval S] "
               "[--flightrec-out FILE]\n"
               "  integers only: R, C in 1..1000, T in 0..256, K in 1..256, "
               "seed N in 0..2^64-1\n"
               "  finite numbers: KN in 0..60 (0 = no ship), --cpa in "
               "0..1000, --duration in 1..3600, DEG in 10..170, M in "
               "0.1..10, F in 0.01..1, --telemetry-interval in 0.1..3600\n");
  return 2;
}
