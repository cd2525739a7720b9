// Crash flight recorder: an always-on bounded ring of the most recent
// trace events, kept even when the JSONL tracer is unarmed (DESIGN.md
// §5j).
//
// The Network attaches one recorder to its Tracer at construction;
// every SID_TRACE/SID_SPAN site then copies its event into the ring
// (fixed-size records, strings truncated — no allocation, no stream I/O)
// regardless of category masks. The retained window is dumped:
//
//   * automatically when an SID_CHECK/SID_DCHECK fails or assert_finite
//     trips, via install_crash_dump() + the util::set_crash_hook slot,
//     so a crashing run leaves its last moments behind;
//   * as a snapshot on quarantine onset (Network calls auto_dump), when
//     an output path has been armed with set_auto_dump_path;
//   * on demand (sid_cli --flightrec-out dumps after every run).
//
// Dump format is JSONL: one header line
//   {"schema":"sid-flightrec-v1","reason":"...","recorded":R,"events":N}
// followed by N events oldest-first in the exact Tracer line format, so
// scripts/check_obs_schema.py --flightrec validates them with the same
// trace/span rules.
//
// Concurrency: record() may be called from parallel_for workers (the
// tracer is hammered by the stress suite); the ring is serialized on an
// internal util::Mutex. Ring CONTENT order across threads is
// scheduling-dependent, which is why deterministic runs only trace from
// the single-threaded event loop — same contract as the Tracer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "util/thread_annotations.h"

namespace sid::obs {

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;
  static constexpr std::size_t kMaxFields = 6;    ///< extra args dropped
  static constexpr std::size_t kNameChars = 31;   ///< longer names truncated
  static constexpr std::size_t kKeyChars = 23;
  static constexpr std::size_t kStringChars = 31;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// Copies one event into the ring, evicting the oldest when full.
  /// Called by Tracer::emit for every hot site; not by user code.
  void record(Category cat, std::string_view name, double sim_time_s,
              std::initializer_list<Field> fields) SID_EXCLUDES(mu_);

  /// Span-record variant (Tracer::emit_span).
  void record_span(Category cat, std::string_view name, double sim_time_s,
                   double duration_s, std::uint64_t span_id,
                   std::initializer_list<Field> fields) SID_EXCLUDES(mu_);

  std::size_t size() const SID_EXCLUDES(mu_);
  std::size_t capacity() const { return capacity_; }
  /// Total events ever recorded (>= size(): the ring forgets, this does
  /// not).
  std::uint64_t recorded_total() const SID_EXCLUDES(mu_);
  void clear() SID_EXCLUDES(mu_);

  /// Writes header + retained events (oldest first) as JSONL.
  void dump(std::ostream& os, std::string_view reason = "manual") const
      SID_EXCLUDES(mu_);

  /// dump() into `path` (truncates). Throws util::Error on failure.
  void dump_to_file(const std::string& path,
                    std::string_view reason = "manual") const;

  /// Arms auto_dump(): snapshots go to this path. Empty string disarms.
  void set_auto_dump_path(std::string path) SID_EXCLUDES(mu_);

  /// Snapshot hook for anomalous-but-nonfatal moments (quarantine onset).
  /// Dumps to the armed path; silently a no-op when disarmed.
  void auto_dump(std::string_view reason) const SID_EXCLUDES(mu_);

  /// Registers this recorder with util::set_crash_hook so a failing
  /// SID_CHECK dumps the ring to `path` (stderr when empty) right before
  /// the abort. One recorder at a time; the latest install wins. The
  /// recorder must outlive any possible crash (in practice: install on a
  /// recorder owned by a Network that lives for the whole program run).
  void install_crash_dump(std::string path = "");

 private:
  /// Fixed-size owned copy of a Field: string payloads are memcpy'd and
  /// truncated so records stay valid after the emit call returns.
  struct StoredField {
    char key[kKeyChars + 1] = {};
    Field::Type type = Field::Type::kBool;
    double num = 0.0;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    bool b = false;
    char s[kStringChars + 1] = {};

    /// A Field reading this copy (valid while the copy lives).
    Field view() const {
      Field f(key, b);
      f.type = type;
      f.num = num;
      f.i = i;
      f.u = u;
      f.s = s;
      return f;
    }
  };

  struct Event {
    double t = 0.0;
    Category cat = Category::kNet;
    char name[kNameChars + 1] = {};
    bool is_span = false;
    std::uint64_t span_id = 0;
    double duration_s = 0.0;
    std::size_t n_fields = 0;
    StoredField fields[kMaxFields];
  };

  void push(Category cat, std::string_view name, double sim_time_s,
            bool is_span, std::uint64_t span_id, double duration_s,
            std::initializer_list<Field> fields) SID_EXCLUDES(mu_);

  std::size_t capacity_;
  mutable util::Mutex mu_;
  /// The retained events, filled as they arrive: it grows (inside the
  /// capacity reserved at construction) until full, then `oldest_` is
  /// the slot the next event overwrites.
  std::vector<Event> ring_ SID_GUARDED_BY(mu_);
  std::size_t oldest_ SID_GUARDED_BY(mu_) = 0;
  std::uint64_t recorded_ SID_GUARDED_BY(mu_) = 0;
  std::string auto_path_ SID_GUARDED_BY(mu_);
};

}  // namespace sid::obs
