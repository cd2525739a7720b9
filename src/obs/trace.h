// Structured event tracer: sim-time-stamped JSONL, one event per line,
// behind per-category enable flags (DESIGN.md §5e).
//
//   {"t":123.456,"cat":"net","name":"msg_tx","args":{"src":3,"dst":0}}
//
// A disabled tracer (the default) costs one atomic pointer test and one
// bitmask test per site; instrumentation sites go through the SID_TRACE
// macro so the SID_ENABLE_METRICS=OFF build removes them entirely. The
// JSONL file converts to Chrome about://tracing format with
// scripts/trace_to_chrome.py.
//
// Concurrency contract (DESIGN.md §5i): the armed-state fast path
// (active()/enabled()) is a relaxed atomic load, and emit() serializes
// whole event lines on an internal Mutex, so tracing from parallel_for
// workers cannot interleave bytes. Event ORDER across threads is
// scheduling-dependent, which is why deterministic runs only trace from
// the single-threaded event loop. open()/attach()/close() must not race
// emit() (arm the tracer before the run, close after).
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "obs/metrics.h"  // SID_METRICS_ENABLED
#include "util/thread_annotations.h"

namespace sid::obs {

class FlightRecorder;

/// Event categories (bitmask). Keep category_name() in sync.
enum class Category : unsigned {
  kNet = 1U << 0,      ///< message tx/rx/drop, floods
  kNode = 1U << 1,     ///< node-level detection events (alarms)
  kCluster = 1U << 2,  ///< temporary-cluster lifecycle, fallbacks
  kSink = 1U << 3,     ///< sink decisions, duplicates
  kEnergy = 1U << 4,   ///< energy accounting milestones
  kFault = 1U << 5,    ///< fault-injection effects (burst/congestion loss)
  kDefense = 1U << 6,  ///< guard verdicts, suspicion, quarantine lifecycle
};

inline constexpr unsigned kAllCategories = (1U << 7) - 1;

std::string_view category_name(Category cat);

/// Parses one category name ("net", "node", ...); nullopt when unknown.
std::optional<Category> parse_category(std::string_view name);

/// Parses a comma-separated list ("net,sink"); "all" (or "") selects every
/// category. Throws util::InvalidArgument on an unknown name.
unsigned parse_category_list(std::string_view csv);

/// One typed key/value pair of an event's "args" object.
struct Field {
  enum class Type { kDouble, kInt, kUInt, kBool, kString };

  constexpr Field(std::string_view k, double v)
      : key(k), type(Type::kDouble), num(v) {}
  constexpr Field(std::string_view k, int v)
      : key(k), type(Type::kInt), i(v) {}
  constexpr Field(std::string_view k, long v)
      : key(k), type(Type::kInt), i(v) {}
  constexpr Field(std::string_view k, long long v)
      : key(k), type(Type::kInt), i(v) {}
  constexpr Field(std::string_view k, unsigned v)
      : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(std::string_view k, unsigned long v)
      : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(std::string_view k, unsigned long long v)
      : key(k), type(Type::kUInt), u(v) {}
  constexpr Field(std::string_view k, bool v)
      : key(k), type(Type::kBool), b(v) {}
  constexpr Field(std::string_view k, std::string_view v)
      : key(k), type(Type::kString), s(v) {}
  constexpr Field(std::string_view k, const char* v)
      : key(k), type(Type::kString), s(v) {}

  std::string_view key;
  Type type;
  double num = 0.0;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  bool b = false;
  std::string_view s;
};

/// Writes one event as a JSONL line (format at the top of this file): the
/// one writer behind Tracer and FlightRecorder::dump. A null `span_id`
/// writes a plain event and ignores `duration_s`.
void write_event_line(std::ostream& os, Category cat, std::string_view name,
                      double sim_time_s, double duration_s,
                      const std::uint64_t* span_id,
                      std::span<const Field> fields);

/// Writes `s` with '"' and '\\' backslash-escaped, as write_event_line
/// writes every string.
void write_escaped(std::ostream& os, std::string_view s);

/// JSONL event sink. Default-constructed tracers are disabled; open() or
/// attach() arms them for the selected categories.
class Tracer {
 public:
  Tracer() = default;

  /// Opens `path` for writing (truncates). Throws util::Error on failure.
  void open(const std::string& path, unsigned categories = kAllCategories)
      SID_EXCLUDES(mu_);

  /// Writes to an externally owned stream (tests, stringstreams).
  void attach(std::ostream* os, unsigned categories = kAllCategories)
      SID_EXCLUDES(mu_);

  /// Flushes and detaches; the tracer returns to the disabled state.
  void close() SID_EXCLUDES(mu_);

  void set_categories(unsigned mask) {
    categories_.store(mask, std::memory_order_relaxed);
  }
  unsigned categories() const {
    return categories_.load(std::memory_order_relaxed);
  }

  bool active() const {
    return out_.load(std::memory_order_relaxed) != nullptr;
  }
  bool enabled(Category cat) const {
    return active() && (categories() & static_cast<unsigned>(cat)) != 0;
  }

  /// Attaches an always-on flight recorder (obs/recorder.h): every event
  /// that reaches emit()/emit_span() is pushed into its bounded ring even
  /// when the JSONL stream is unarmed or the category is filtered out.
  /// Null detaches. Must not race emit() (set before the run).
  void set_recorder(FlightRecorder* recorder) {
    recorder_.store(recorder, std::memory_order_relaxed);
  }
  FlightRecorder* recorder() const {
    return recorder_.load(std::memory_order_relaxed);
  }

  /// Instrumentation-site fast path: true when emit()/emit_span() would do
  /// any work at all — either the JSONL stream wants this category or a
  /// flight recorder is attached. One relaxed load on the recorder-free
  /// disabled path.
  bool hot(Category cat) const {
    return recorder() != nullptr || enabled(cat);
  }

  /// Writes one event line (serialized on the internal mutex). Callers
  /// must check hot() first (the SID_TRACE macro does); emit() on a
  /// disabled category still feeds the flight recorder but writes no line.
  void emit(Category cat, std::string_view name, double sim_time_s,
            std::initializer_list<Field> fields = {}) SID_EXCLUDES(mu_);

  /// Writes one span record — an event line with an extra "span" object
  /// carrying the causal trace id (16 lowercase hex digits) and the span
  /// duration in sim seconds (obs/span.h):
  ///
  ///   {"t":...,"cat":"net","name":"span_hop",
  ///    "span":{"id":"00c1d2...","dur":0.0123},"args":{...}}
  ///
  /// Same serialization and recorder contract as emit(); call sites go
  /// through the SID_SPAN macro, never emit_span() directly (the
  /// span-funnel lint enforces this outside src/obs/).
  void emit_span(Category cat, std::string_view name, double sim_time_s,
                 double duration_s, std::uint64_t span_id,
                 std::initializer_list<Field> fields = {}) SID_EXCLUDES(mu_);

  /// Number of lines written to the JSONL stream (recorder-only pushes do
  /// not count).
  std::uint64_t events_emitted() const SID_EXCLUDES(mu_);

 private:
  void write_line(Category cat, std::string_view name, double sim_time_s,
                  double duration_s, const std::uint64_t* span_id,
                  std::initializer_list<Field> fields) SID_EXCLUDES(mu_);

  /// Armed-state fast path: non-null iff the tracer is armed. The pointee
  /// is only written by emit() under mu_.
  std::atomic<std::ostream*> out_{nullptr};
  std::atomic<unsigned> categories_{kAllCategories};
  std::atomic<FlightRecorder*> recorder_{nullptr};
  mutable util::Mutex mu_;
  std::unique_ptr<std::ofstream> file_ SID_GUARDED_BY(mu_);
  std::uint64_t events_ SID_GUARDED_BY(mu_) = 0;
};

}  // namespace sid::obs

// Instrumentation-site macro: compiled out with SID_ENABLE_METRICS=OFF.
// `tracer` is a Tracer*; everything after `cat` forwards to emit(). The
// compiled-out form keeps the call in a branch that is never taken, so
// its arguments count as used (no unused-parameter warnings) but are
// never evaluated.
#if SID_METRICS_ENABLED
#define SID_TRACE(tracer, cat, ...)                        \
  do {                                                     \
    ::sid::obs::Tracer* sid_trace_ptr = (tracer);          \
    if (sid_trace_ptr != nullptr && sid_trace_ptr->hot(cat)) {         \
      sid_trace_ptr->emit(cat, __VA_ARGS__);               \
    }                                                      \
  } while (0)
#else
#define SID_TRACE(tracer, cat, ...)                        \
  do {                                                     \
    if (false) {                                           \
      static_cast<::sid::obs::Tracer*>(tracer)->emit(cat, __VA_ARGS__); \
    }                                                      \
  } while (0)
#endif
