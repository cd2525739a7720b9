// e2e_run: one workload of the end-to-end SID benchmark per process
// (bench/e2e/README.md has the workloads, metrics and how to run them).
//
//   e2e_run --workload NAME --seed N --seconds S --trace 0|1
//           [--spans-out FILE]
//   e2e_run --smoke
//
// A run first times the workload's constructor several times (setup_s),
// then runs reps in a closed loop for about S seconds. Each rep builds its
// own system and runs it; reps are timed from outside, around calls into
// the public API only. With --trace 1 the reps also record spans (rep >
// setup, front_end, run > wsn.send, wsn.deliver), and rep 0 is re-run
// untraced to prove tracing left the simulated results unchanged.
//
// Progress and a metric table go to stderr; the last line of stdout is
// one JSON object with the metrics, the output-check verdicts and the sink
// digest. Exit status: 0 when every check passed, 1 when one failed, 2 on
// bad usage. --smoke runs all four workloads at toy sizes, traced and
// untraced, and exits 1 on any failed check (the e2e_bench_smoke ctest).
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/scenario.h"
#include "core/sid_system.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "wsn/network.h"
#include "wsn/reliable.h"
#include "workloads.h"

namespace {

using namespace sid;
using e2e::Scale;
using e2e::Workload;

/// setup_s is the median of at least kMinSetups constructor timings, taken
/// until kSetupBudgetS of them have accrued (small systems construct in
/// microseconds, so one timing alone is mostly noise).
constexpr std::size_t kMinSetups = 9;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.2;
/// Forged streams start here (wsn::ForgeryAttack::seq_base); honest
/// per-run sequence counters never reach it.
constexpr std::uint32_t kForgedSeqBase = 1u << 20;
/// A send's destination "repeats" when an issued send used it this
/// recently (wsn.dest_repeat_share).
constexpr double kDestRepeatWindowS = 10.0;
/// The layer spans must cover at least this share of each rep's wall.
constexpr double kTileTolerance = 0.02;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::monotonic_ns() - start_ns) * 1e-9;
}

/// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// FNV-1a over the byte images of the sink's outputs.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Spans: recorded in memory around calls into each layer, written as JSONL
// at exit. A span's self time is its duration minus its children's.

constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

struct Span {
  const char* name = "";
  std::size_t parent = kNoSpan;
  std::size_t rep = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::size_t begin(const char* name, std::size_t parent, std::size_t rep) {
    if (!enabled_) return kNoSpan;
    spans_.push_back({name, parent, rep, obs::monotonic_ns(), 0});
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    if (id != kNoSpan) spans_[id].end_ns = obs::monotonic_ns();
  }

  /// Self seconds per span name within rep `rep`, plus the rep's wall.
  std::map<std::string, double> self_times(std::size_t rep,
                                           double& rep_wall_s) const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.rep == rep && s.parent != kNoSpan) {
        child_s[s.parent] += duration_s(s);
      }
    }
    std::map<std::string, double> self;
    rep_wall_s = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].rep != rep) continue;
      if (spans_[i].parent == kNoSpan) rep_wall_s = duration_s(spans_[i]);
      self[spans_[i].name] += duration_s(spans_[i]) - child_s[i];
    }
    return self;
  }

  bool write_jsonl(const std::string& path, std::string_view workload) const {
    std::ofstream os(path);
    if (!os) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"trace\":\"" << workload << '/' << s.rep << "\",\"span\":" << i
         << ",\"parent\":";
      if (s.parent == kNoSpan) {
        os << "null";
      } else {
        os << s.parent;
      }
      os << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << "}\n";
    }
    return static_cast<bool>(os);
  }

 private:
  static double duration_s(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::size_t parent,
             std::size_t rep)
      : log_(log), id_(log.begin(name, parent, rep)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::size_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::size_t id_;
};

// ---------------------------------------------------------------------------
// Metric catalogue. The names and units must match BENCHMARK.json (run.py
// checks they do).

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported with --trace 1 as the median over reps.
constexpr MetricSpec kLayerMetrics[] = {
    {"rep.wall_s", "s"},
    {"tile.setup", "share"},
    {"tile.front_end", "share"},
    {"tile.run_self", "share"},
    {"tile.wsn_send", "share"},
    {"tile.wsn_deliver", "share"},
    {"tile.glue", "share"},
    {"run.wall_s", "s"},
    {"sensing.synthesis_busy", "cpu_s/s"},
    {"sensing.synthesis_calls", "count"},
    {"dsp.detector_busy", "cpu_s/s"},
    {"dsp.detector_calls", "count"},
    {"core.correlation_busy", "cpu_s/s"},
    {"core.clusters_formed", "count"},
    {"core.clusters_cancelled", "count"},
    {"core.fused_detections", "count"},
    {"acoustic.contacts_sent", "count"},
    {"wsn.adjacency_cpu_s", "s"},
    {"wsn.dispatch_cpu_s", "s"},
    {"wsn.shard_windows", "count"},
    {"wsn.shard_window_wall_s", "s"},
    {"wsn.events_executed", "count"},
    {"wsn.events_per_wall_s", "1/s"},
    {"wsn.unicasts_attempted", "count"},
    {"wsn.hops_per_unicast", "hops"},
    {"wsn.dest_repeat_share", "share"},
    {"wsn.e2e_sends", "count"},
    {"wsn.e2e_retries", "count"},
    {"wsn.e2e_gave_up", "count"},
    {"wsn.e2e_duplicates", "count"},
    {"wsn.retry_ratio", "share"},
    {"wsn.beacons_sent", "count"},
    {"wsn.suspicions", "count"},
    {"wsn.false_suspicions", "count"},
    {"wsn.route_repairs", "count"},
    {"wsn.suspicions_per_node_s", "1/s"},
    {"wsn.defense_filtered", "count"},
    {"wsn.defense_quarantines", "count"},
    {"wsn.defense_acoustic_rejects", "count"},
    {"obs.trace_overhead_share", "share"},
};

// ---------------------------------------------------------------------------
// One rep.

struct RepResult {
  double run_wall_s = 0.0;
  double horizon_s = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  // Simulated outcomes.
  std::uint64_t e2e_sends = 0;
  std::uint64_t e2e_acked = 0;
  bool detected = false;
  std::uint64_t alarms = 0;
  std::uint64_t false_alarms = 0;
  std::uint64_t forged_accepted = 0;
  std::optional<obs::Histogram::Snapshot> decision_latency;
  std::vector<double> ack_latency_s;
  // Traced reps only.
  std::vector<double> send_us;
  std::map<std::string, double> layer;
};

double stage_sum_s(obs::Stage stage) {
  return obs::stage_histogram(stage).sum() * 1e-9;
}

std::uint64_t counter(const obs::Registry& registry, std::string_view name) {
  const obs::Counter* c = registry.find_counter(name);
  return c == nullptr ? 0 : c->value();
}

/// Output checks shared by every workload.
void check_network(const wsn::Network& net, RepResult& r) {
  const wsn::NetworkStats& s = net.stats();
  if (s.unicasts_attempted !=
      s.unicasts_delivered + s.unicasts_dropped + s.unicasts_unroutable) {
    r.failures.push_back("unicast conservation: attempted " +
                         std::to_string(s.unicasts_attempted) +
                         " != delivered + dropped + unroutable");
  }
  const std::uint64_t gave_up = counter(net.registry(), "net.e2e_gave_up");
  r.e2e_sends = counter(net.registry(), "net.e2e_sends");
  r.e2e_acked = counter(net.registry(), "net.e2e_acked");
  if (r.e2e_sends != r.e2e_acked + gave_up) {
    r.failures.push_back("e2e conservation: sends " +
                         std::to_string(r.e2e_sends) + " != acked " +
                         std::to_string(r.e2e_acked) + " + gave_up " +
                         std::to_string(gave_up));
  }
}

/// Per-layer counters and profile stages of a finished run. The profile
/// registry was reset right before the run, except for the adjacency
/// stage, which the caller read after construction.
void add_layers(const wsn::Network& net, double run_wall_s, double horizon_s,
                RepResult& r) {
  const wsn::NetworkStats& s = net.stats();
  const obs::Registry& reg = net.registry();
  const auto events = static_cast<double>(net.events_executed_total());
  auto& l = r.layer;
  l["run.wall_s"] = run_wall_s;
  l["sensing.synthesis_busy"] =
      ratio(stage_sum_s(obs::Stage::kSynthesis), run_wall_s);
  l["sensing.synthesis_calls"] =
      static_cast<double>(obs::stage_histogram(obs::Stage::kSynthesis).count());
  l["dsp.detector_busy"] =
      ratio(stage_sum_s(obs::Stage::kDetector), run_wall_s);
  l["dsp.detector_calls"] =
      static_cast<double>(obs::stage_histogram(obs::Stage::kDetector).count());
  l["core.correlation_busy"] =
      ratio(stage_sum_s(obs::Stage::kCorrelation), run_wall_s);
  l["core.clusters_formed"] =
      static_cast<double>(counter(reg, "sid.clusters_formed"));
  l["core.clusters_cancelled"] =
      static_cast<double>(counter(reg, "sid.clusters_cancelled"));
  l["core.fused_detections"] =
      static_cast<double>(counter(reg, "sid.fused_detections"));
  l["acoustic.contacts_sent"] =
      static_cast<double>(counter(reg, "sid.acoustic_contacts_sent"));
  l["wsn.dispatch_cpu_s"] = stage_sum_s(obs::Stage::kEventDispatch);
  l["wsn.shard_windows"] = static_cast<double>(
      obs::stage_histogram(obs::Stage::kShardWindow).count());
  l["wsn.shard_window_wall_s"] = stage_sum_s(obs::Stage::kShardWindow);
  l["wsn.events_executed"] = events;
  l["wsn.events_per_wall_s"] = ratio(events, run_wall_s);
  l["wsn.unicasts_attempted"] = static_cast<double>(s.unicasts_attempted);
  l["wsn.hops_per_unicast"] =
      ratio(static_cast<double>(s.hops_traversed),
            static_cast<double>(s.unicasts_attempted));
  const auto sends = static_cast<double>(counter(reg, "net.e2e_sends"));
  const auto retries = static_cast<double>(counter(reg, "net.e2e_retries"));
  l["wsn.e2e_sends"] = sends;
  l["wsn.e2e_retries"] = retries;
  l["wsn.e2e_gave_up"] = static_cast<double>(counter(reg, "net.e2e_gave_up"));
  l["wsn.e2e_duplicates"] =
      static_cast<double>(counter(reg, "net.e2e_duplicates"));
  l["wsn.retry_ratio"] = ratio(retries, sends);
  l["wsn.beacons_sent"] = static_cast<double>(s.beacons_sent);
  l["wsn.suspicions"] = static_cast<double>(s.suspicions);
  l["wsn.false_suspicions"] = static_cast<double>(s.false_suspicions);
  l["wsn.route_repairs"] = static_cast<double>(s.route_repairs);
  l["wsn.suspicions_per_node_s"] =
      ratio(static_cast<double>(s.suspicions),
            static_cast<double>(net.node_count()) * horizon_s);
  l["wsn.defense_filtered"] = static_cast<double>(s.defense_filtered);
  l["wsn.defense_quarantines"] = static_cast<double>(s.defense_quarantines);
  l["wsn.defense_acoustic_rejects"] =
      static_cast<double>(s.defense_acoustic_rejects);
}

RepResult run_system_rep(Workload workload, const e2e::SystemPass& pass,
                         SpanLog& log, std::size_t rep) {
  RepResult r;
  r.horizon_s = pass.horizon_s;
  const ScopedSpan rep_span(log, "rep", kNoSpan, rep);
  obs::reset_profile();
  std::optional<core::SidSystem> system;
  {
    const ScopedSpan span(log, "setup", rep_span.id(), rep);
    system.emplace(pass.config);
  }
  const double adjacency_s = stage_sum_s(obs::Stage::kAdjacency);
  if (log.enabled()) {
    // The front end again, as a separate call: run() performs it
    // internally, where it cannot be timed from outside.
    const ScopedSpan span(log, "front_end", rep_span.id(), rep);
    core::simulate_node_reports(system->network(), pass.ships,
                                pass.config.scenario);
  }
  obs::reset_profile();
  const std::uint64_t t0 = obs::monotonic_ns();
  core::SystemResult result;
  {
    const ScopedSpan span(log, "run", rep_span.id(), rep);
    result = system->run(pass.ships);
  }
  r.run_wall_s = seconds_since(t0);

  const wsn::Network& net = system->network();
  check_network(net, r);
  r.alarms = result.alarms_raised;
  r.false_alarms = counter(net.registry(), "detect.false_alarms");
  r.detected = workload == Workload::kFleetFused ? result.fused_detections > 0
                                                 : result.intrusion_reported();
  if (const obs::Histogram* h =
          net.registry().find_histogram("sid.decision_latency_s")) {
    r.decision_latency = h->snapshot();
  }
  Digest d;
  for (const core::SinkReport& s : result.sink_reports) {
    const wsn::ClusterDecision& dec = s.decision;
    d.add(dec.head);
    d.add(dec.seq);
    d.add(dec.intrusion);
    d.add(dec.correlation);
    d.add(dec.estimated_speed_mps);
    d.add(s.sink_time_s);
    if (dec.seq >= kForgedSeqBase) ++r.forged_accepted;
  }
  for (const wsn::AcousticContactReport& c : result.acoustic_contacts) {
    d.add(c.reporter);
    d.add(c.seq);
    d.add(c.snr_db);
    if (c.seq >= kForgedSeqBase) ++r.forged_accepted;
  }
  for (const core::FusedTrackDecision& f : result.fused) {
    d.add(f.time_s);
    d.add(f.confidence);
  }
  d.add(result.alarms_raised);
  d.add(net.stats().unicasts_delivered);
  r.digest = d.value();
  if (workload == Workload::kFleetFused) {
    if (r.forged_accepted != 0) {
      r.failures.push_back(std::to_string(r.forged_accepted) +
                           " forged decisions/contacts accepted at the sink");
    }
    if (net.stats().defense_false_quarantines != 0) {
      r.failures.push_back(
          std::to_string(net.stats().defense_false_quarantines) +
          " false quarantines");
    }
  }
  if (log.enabled()) {
    add_layers(net, r.run_wall_s, r.horizon_s, r);
    r.layer["wsn.adjacency_cpu_s"] = adjacency_s;
  }
  return r;
}

/// The open-loop traffic generator of the network workloads: issues each
/// scheduled send at its due sim time from the source node (a dead source
/// sends nothing) and records the transport's verdicts.
class TrafficGenerator {
 public:
  TrafficGenerator(wsn::Network& net, wsn::ReliableTransport& transport,
                   const std::vector<e2e::ScheduledSend>& sends, SpanLog& log,
                   std::size_t rep)
      : net_(net),
        transport_(transport),
        sends_(sends),
        log_(log),
        rep_(rep),
        verdicts_(sends.size(), 0) {}
  TrafficGenerator(const TrafficGenerator&) = delete;
  TrafficGenerator& operator=(const TrafficGenerator&) = delete;

  /// Schedules every send and installs the delivery handler; spans of the
  /// wrapped calls become children of `run_span`.
  void start(std::size_t run_span) {
    run_span_ = run_span;
    net_.set_delivery_handler(
        [this](wsn::NodeId receiver, const wsn::Message& msg, double t) {
          on_deliver(receiver, msg, t);
        });
    for (std::size_t i = 0; i < sends_.size(); ++i) {
      net_.events().schedule_at(sends_[i].t_s, [this, i] { issue(i); });
    }
  }

  void finish(RepResult& r) {
    std::size_t resolved = 0;
    for (std::size_t i = 0; i < sends_.size(); ++i) {
      if (verdicts_[i] > 1) {
        r.failures.push_back("send " + std::to_string(i) +
                             " completed more than once");
      }
      if (verdicts_[i] > 0) ++resolved;
    }
    if (resolved != issued_) {
      r.failures.push_back(std::to_string(issued_ - resolved) +
                           " sends never completed");
    }
    if (transport_.pending_count() != 0) {
      r.failures.push_back(std::to_string(transport_.pending_count()) +
                           " sends still pending after the run");
    }
    digest_.add(issued_);
    r.digest = digest_.value();
    r.ack_latency_s = std::move(ack_latency_s_);
    r.send_us = std::move(send_us_);
    r.layer["wsn.dest_repeat_share"] =
        ratio(static_cast<double>(dest_repeats_), static_cast<double>(issued_));
  }

 private:
  void issue(std::size_t i) {
    const e2e::ScheduledSend& s = sends_[i];
    const double now = net_.events().now();
    if (!net_.can_execute(s.src, now)) return;
    wsn::Message msg;
    msg.src = s.src;
    msg.dst = s.dst;
    if (s.decision) {
      wsn::ClusterDecision dec;
      dec.head = s.src;
      dec.seq = static_cast<std::uint32_t>(i);
      dec.intrusion = true;
      dec.decision_local_time_s = net_.local_time(s.src, now);
      msg.payload = dec;
    } else {
      const wsn::NodeInfo& info = net_.node(s.src);
      wsn::DetectionReport report;
      report.reporter = s.src;
      report.position = info.anchor;
      report.grid_row = info.grid_row;
      report.grid_col = info.grid_col;
      report.onset_local_time_s = net_.local_time(s.src, now);
      msg.payload = report;
    }
    const auto last = last_dst_use_.find(s.dst);
    if (last != last_dst_use_.end() && now - last->second <= kDestRepeatWindowS) {
      ++dest_repeats_;
    }
    last_dst_use_[s.dst] = now;
    ++issued_;
    const auto callback = [this, i, now](wsn::ReliableOutcome outcome,
                                         double t) {
      ++verdicts_[i];
      const bool acked = outcome == wsn::ReliableOutcome::kAcked;
      if (acked) ack_latency_s_.push_back(t - now);
      digest_.add(i);
      digest_.add(acked);
      digest_.add(t);
    };
    if (!log_.enabled()) {
      transport_.send(msg, callback);
      return;
    }
    const std::uint64_t t0 = obs::monotonic_ns();
    {
      const ScopedSpan span(log_, "wsn.send", run_span_, rep_);
      transport_.send(msg, callback);
    }
    send_us_.push_back(seconds_since(t0) * 1e6);
  }

  void on_deliver(wsn::NodeId receiver, const wsn::Message& msg, double t) {
    const ScopedSpan span(log_, "wsn.deliver", run_span_, rep_);
    if (!transport_.on_deliver(receiver, msg, t)) return;
    digest_.add(receiver);
    digest_.add(msg.src);
    digest_.add(msg.e2e_seq);
    digest_.add(t);
  }

  wsn::Network& net_;
  wsn::ReliableTransport& transport_;
  const std::vector<e2e::ScheduledSend>& sends_;
  SpanLog& log_;
  std::size_t rep_;
  std::size_t run_span_ = kNoSpan;
  /// Completions seen per send (must end 1 for issued sends, 0 otherwise).
  std::vector<std::uint32_t> verdicts_;
  std::size_t issued_ = 0;
  std::size_t dest_repeats_ = 0;
  std::map<wsn::NodeId, double> last_dst_use_;
  std::vector<double> ack_latency_s_;
  std::vector<double> send_us_;
  Digest digest_;
};

RepResult run_network_rep(const e2e::NetworkRep& inputs, SpanLog& log,
                          std::size_t rep) {
  RepResult r;
  r.horizon_s = inputs.beacons_until_s;
  const ScopedSpan rep_span(log, "rep", kNoSpan, rep);
  obs::reset_profile();
  std::optional<wsn::Network> net;
  {
    const ScopedSpan span(log, "setup", rep_span.id(), rep);
    net.emplace(inputs.network);
  }
  const double adjacency_s = stage_sum_s(obs::Stage::kAdjacency);
  wsn::ReliableTransport transport(*net, wsn::ReliableConfig{});
  TrafficGenerator generator(*net, transport, inputs.sends, log, rep);
  obs::reset_profile();
  const std::uint64_t t0 = obs::monotonic_ns();
  {
    const ScopedSpan span(log, "run", rep_span.id(), rep);
    net->start_beacons(inputs.beacons_until_s);
    generator.start(span.id());
    net->run_events();
  }
  r.run_wall_s = seconds_since(t0);
  generator.finish(r);
  check_network(*net, r);
  if (r.e2e_acked == 0) r.failures.push_back("no send was acked");
  if (log.enabled()) {
    add_layers(*net, r.run_wall_s, r.horizon_s, r);
    r.layer["wsn.adjacency_cpu_s"] = adjacency_s;
  }
  return r;
}

// ---------------------------------------------------------------------------
// One run: setup timing, the closed rep loop, checks and metrics.

struct RunOptions {
  Workload workload = Workload::kHarbor;
  Scale scale = Scale::kFull;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  std::vector<double> sim_s_per_wall_s;
  std::vector<std::uint64_t> digests;
  std::vector<RepResult> reps;
  std::map<std::string, double> layer;
};

RepResult run_rep(const RunOptions& opt, SpanLog& log, std::size_t rep,
                  const std::optional<e2e::NetworkRep>& network_inputs) {
  try {
    if (network_inputs) return run_network_rep(*network_inputs, log, rep);
    return run_system_rep(
        opt.workload,
        e2e::system_pass(opt.workload, opt.scale, opt.seed, rep), log, rep);
  } catch (const std::exception& e) {
    RepResult r;
    r.failures.push_back(std::string("threw: ") + e.what());
    return r;
  }
}

/// Median-over-reps layer values, the self-time tiles of every traced rep,
/// and the tracing overhead.
void summarize_trace(const SpanLog& log, RunResult& run,
                     double untraced_run_wall_s) {
  std::map<std::string, std::vector<double>> per_rep;
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    RepResult& r = run.reps[i];
    double rep_wall_s = 0.0;
    const auto self = log.self_times(i, rep_wall_s);
    const auto self_s = [&](const char* span) {
      const auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second;
    };
    r.layer["rep.wall_s"] = rep_wall_s;
    r.layer["tile.setup"] = ratio(self_s("setup"), rep_wall_s);
    r.layer["tile.front_end"] = ratio(self_s("front_end"), rep_wall_s);
    r.layer["tile.run_self"] = ratio(self_s("run"), rep_wall_s);
    r.layer["tile.wsn_send"] = ratio(self_s("wsn.send"), rep_wall_s);
    r.layer["tile.wsn_deliver"] = ratio(self_s("wsn.deliver"), rep_wall_s);
    r.layer["tile.glue"] = ratio(self_s("rep"), rep_wall_s);
    if (r.failures.empty() && r.layer["tile.glue"] > kTileTolerance) {
      r.failures.push_back("layer spans cover only " +
                           std::to_string(1.0 - r.layer["tile.glue"]) +
                           " of the rep's wall time");
    }
    for (const auto& [name, value] : r.layer) per_rep[name].push_back(value);
  }
  for (const auto& [name, values] : per_rep) run.layer[name] = median(values);
  if (!run.reps.empty()) {
    run.layer["obs.trace_overhead_share"] =
        ratio(run.reps.front().run_wall_s, untraced_run_wall_s) - 1.0;
  }
}

RunResult run_workload(const RunOptions& opt) {
  RunResult run;
  std::optional<e2e::NetworkRep> network_inputs;
  std::optional<core::SidSystemConfig> system_config;
  if (e2e::runs_sid_system(opt.workload)) {
    system_config =
        e2e::system_pass(opt.workload, opt.scale, opt.seed, 0).config;
  } else {
    network_inputs = e2e::network_rep(opt.workload, opt.scale, opt.seed);
  }

  // Set-up time: the constructor alone, several times.
  double setup_total_s = 0.0;
  while (run.setup_s.size() < kMinSetups ||
         (setup_total_s < kSetupBudgetS && run.setup_s.size() < kMaxSetups)) {
    const std::uint64_t t0 = obs::monotonic_ns();
    if (network_inputs) {
      const wsn::Network net(network_inputs->network);
      run.setup_s.push_back(seconds_since(t0));
    } else {
      const core::SidSystem system(*system_config);
      run.setup_s.push_back(seconds_since(t0));
    }
    setup_total_s += run.setup_s.back();
  }

  // Closed loop: start another rep while it is expected to end in time.
  SpanLog log(opt.trace);
  const std::uint64_t loop_start = obs::monotonic_ns();
  double last_rep_s = 0.0;
  do {
    const std::uint64_t t0 = obs::monotonic_ns();
    run.reps.push_back(run_rep(opt, log, run.reps.size(), network_inputs));
    last_rep_s = seconds_since(t0);
    const RepResult& r = run.reps.back();
    std::fprintf(stderr, "  rep %zu: run %.3f s, digest %016" PRIx64 "%s\n",
                 run.reps.size() - 1, r.run_wall_s, r.digest,
                 r.failures.empty() ? "" : " FAILED");
  } while (seconds_since(loop_start) + 0.5 * last_rep_s <= opt.seconds);

  if (network_inputs) {
    // Every rep ran the same inputs, so every rep must agree bit for bit.
    for (RepResult& r : run.reps) {
      if (r.failures.empty() && r.digest != run.reps.front().digest) {
        r.failures.push_back("same-seed reps produced different sink output");
      }
    }
  }
  if (opt.trace) {
    // Tracing must not change what the simulation computes.
    SpanLog untraced(false);
    const RepResult plain = run_rep(opt, untraced, 0, network_inputs);
    RepResult& first = run.reps.front();
    if (plain.digest != first.digest) {
      first.failures.push_back("traced digest differs from untraced digest");
    }
    summarize_trace(log, run, plain.run_wall_s);
    if (!opt.spans_out.empty() &&
        !log.write_jsonl(opt.spans_out, e2e::workload_name(opt.workload))) {
      run.failures.push_back("cannot write " + opt.spans_out);
    }
  }

  for (const RepResult& r : run.reps) {
    ++run.attempted;
    if (!r.failures.empty()) ++run.failed;
    for (const std::string& f : r.failures) run.failures.push_back(f);
    run.sim_s_per_wall_s.push_back(ratio(r.horizon_s, r.run_wall_s));
    run.digests.push_back(r.digest);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a user of the simulator sees (run.py adds peak_rss_mb).
std::vector<Metric> end_to_end_metrics(const RunResult& run) {
  return {{"setup_s", median(run.setup_s), "s"},
          {"sim_s_per_wall_s", median(run.sim_s_per_wall_s), "ratio"}};
}

/// What the simulated deployment did: deterministic for a given seed and
/// rep count, printed beside the metrics.
std::vector<Metric> outcome_metrics(const RunResult& run) {
  double sends = 0.0;
  double acked = 0.0;
  double detected = 0.0;
  double alarms = 0.0;
  double false_alarms = 0.0;
  double forged = 0.0;
  std::vector<double> acks;
  std::vector<double> send_us;
  std::optional<obs::Histogram::Snapshot> latency;
  for (const RepResult& r : run.reps) {
    sends += static_cast<double>(r.e2e_sends);
    acked += static_cast<double>(r.e2e_acked);
    detected += r.detected ? 1.0 : 0.0;
    alarms += static_cast<double>(r.alarms);
    false_alarms += static_cast<double>(r.false_alarms);
    forged += static_cast<double>(r.forged_accepted);
    acks.insert(acks.end(), r.ack_latency_s.begin(), r.ack_latency_s.end());
    send_us.insert(send_us.end(), r.send_us.begin(), r.send_us.end());
    if (!r.decision_latency) continue;
    if (!latency) {
      latency = r.decision_latency;
      continue;
    }
    // Same bucket layout in every rep: merge by adding.
    const obs::Histogram::Snapshot& s = *r.decision_latency;
    if (s.count == 0) continue;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      latency->buckets[b] += s.buckets[b];
    }
    latency->min = latency->count == 0 ? s.min : std::min(latency->min, s.min);
    latency->max = std::max(latency->max, s.max);
    latency->count += s.count;
    latency->sum += s.sum;
  }
  const auto reps = static_cast<double>(run.reps.size());
  const double latency_n = latency ? static_cast<double>(latency->count) : 0.0;
  const auto pct = [&](double p) {
    return latency ? latency->percentile(p) : 0.0;
  };
  return {{"reps", reps, "count"},
          {"detection_recall", ratio(detected, reps), "share"},
          {"false_alarm_ratio", ratio(false_alarms, alarms), "share"},
          {"decision_latency_s.p50", pct(0.5), "sim-s"},
          {"decision_latency_s.p90", pct(0.9), "sim-s"},
          {"decision_latency_s.count", latency_n, "count"},
          {"ack_latency_s.p50", percentile(acks, 0.5), "sim-s"},
          {"ack_latency_s.p90", percentile(acks, 0.9), "sim-s"},
          {"ack_latency_s.count", static_cast<double>(acks.size()), "count"},
          {"delivery_ratio", ratio(acked, sends), "share"},
          {"forged_accepted", forged, "count"},
          {"failed_share",
           ratio(static_cast<double>(run.failed),
                 static_cast<double>(run.attempted)),
           "share"},
          {"wsn.send_us.p50", percentile(send_us, 0.5), "us"},
          {"wsn.send_us.p99", percentile(send_us, 0.99), "us"},
          {"wsn.send_us.count", static_cast<double>(send_us.size()), "count"}};
}

std::vector<Metric> layer_metrics(const RunResult& run) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : kLayerMetrics) {
    const auto it = run.layer.find(spec.name);
    out.push_back({spec.name, it == run.layer.end() ? 0.0 : it->second,
                   spec.unit});
  }
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           json_escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "  %s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "    %-28s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

/// Runs one workload and prints its result; returns the exit status.
int run_and_report(const RunOptions& opt) {
  const std::string_view name = e2e::workload_name(opt.workload);
  std::fprintf(stderr, "%.*s seed=%" PRIu64 " seconds=%g trace=%d\n",
               static_cast<int>(name.size()), name.data(), opt.seed,
               opt.seconds, opt.trace ? 1 : 0);
  const RunResult run = run_workload(opt);
  const std::vector<Metric> metrics =
      opt.trace ? layer_metrics(run) : end_to_end_metrics(run);
  const std::vector<Metric> outcomes = outcome_metrics(run);
  print_table(opt.trace ? "per-layer (median over reps)" : "end-to-end",
              metrics);
  print_table("simulated outcomes", outcomes);
  for (const std::string& f : run.failures) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", f.c_str());
  }

  const bool correct = run.failures.empty();
  std::string digests = "[";
  for (std::size_t i = 0; i < run.digests.size(); ++i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%s\"%016" PRIx64 "\"", i > 0 ? ", " : "",
                  run.digests[i]);
    digests += buf;
  }
  digests += "]";
  std::string failures = "[";
  for (std::size_t i = 0; i < run.failures.size(); ++i) {
    failures += (i > 0 ? ", \"" : "\"") + json_escape(run.failures[i]) + "\"";
  }
  failures += "]";
  std::printf(
      "{\"workload\": \"%.*s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"failures\": %s, \"digests\": %s, \"metrics\": %s, \"outcomes\": %s}\n",
      static_cast<int>(name.size()), name.data(), opt.seed, opt.trace ? 1 : 0,
      correct ? "true" : "false", run.attempted, run.failed, failures.c_str(),
      digests.c_str(), json_metrics(metrics).c_str(),
      json_metrics(outcomes).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-out FILE]\n       %s --smoke\n"
               "workloads: harbor_6x6 fleet_fused_24x24 dataplane_100x100 "
               "churn_100x100\n",
               argv0, argv0);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out) && out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool smoke = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    double number = 0.0;
    if (arg == "--workload") {
      const auto w = e2e::parse_workload(value);
      if (!w) return usage(argv[0]);
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed" && parse_number(value, number) &&
               number == std::floor(number) && number < 1e15) {
      opt.seed = static_cast<std::uint64_t>(number);
    } else if (arg == "--seconds" && parse_number(value, number) &&
               number <= 3600.0) {
      opt.seconds = number;
    } else if (arg == "--trace" && (std::string_view(value) == "0" ||
                                    std::string_view(value) == "1")) {
      opt.trace = std::string_view(value) == "1";
    } else if (arg == "--spans-out") {
      opt.spans_out = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (smoke == have_workload) return usage(argv[0]);
  if (!smoke) return run_and_report(opt);

  int status = 0;
  opt.scale = Scale::kSmoke;
  opt.seconds = 0.0;  // one rep each
  for (const Workload w : e2e::kWorkloads) {
    opt.workload = w;
    for (const bool trace : {false, true}) {
      opt.trace = trace;
      status = std::max(status, run_and_report(opt));
    }
  }
  std::fprintf(stderr, "e2e smoke: %s\n", status == 0 ? "ok" : "FAILED");
  return status;
}
