#include "obs/recorder.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "util/check.h"
#include "util/error.h"

namespace sid::obs {

namespace {

void copy_truncated(char* dst, std::size_t dst_chars, std::string_view src) {
  const std::size_t n = src.size() < dst_chars ? src.size() : dst_chars;
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

// install_crash_dump state: the util crash hook is a bare function
// pointer, so the recorder/path pair lives in file-scope statics guarded
// by their own mutex (the hook may fire on any thread).
util::Mutex& crash_mu() {
  static util::Mutex mu;
  return mu;
}
FlightRecorder* g_crash_recorder = nullptr;
std::string& crash_path() {
  static std::string path;
  return path;
}

void crash_dump_trampoline() {
  const util::LockGuard lock(crash_mu());
  if (g_crash_recorder == nullptr) return;
  const std::string& path = crash_path();
  if (path.empty()) {
    g_crash_recorder->dump(std::cerr, "crash");
    std::cerr.flush();
  } else {
    g_crash_recorder->dump_to_file(path, "crash");
    std::fprintf(stderr, "flight recorder: crash dump written to %s\n",
                 path.c_str());
    std::fflush(stderr);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  util::require(capacity > 0, "FlightRecorder: capacity must be positive");
  // Storage only: every slot is written before it is read.
  const util::LockGuard lock(mu_);
  ring_.reserve(capacity);
}

void FlightRecorder::record(Category cat, std::string_view name,
                            double sim_time_s,
                            std::initializer_list<Field> fields) {
  push(cat, name, sim_time_s, /*is_span=*/false, 0, 0.0, fields);
}

void FlightRecorder::record_span(Category cat, std::string_view name,
                                 double sim_time_s, double duration_s,
                                 std::uint64_t span_id,
                                 std::initializer_list<Field> fields) {
  push(cat, name, sim_time_s, /*is_span=*/true, span_id, duration_s, fields);
}

void FlightRecorder::push(Category cat, std::string_view name,
                          double sim_time_s, bool is_span,
                          std::uint64_t span_id, double duration_s,
                          std::initializer_list<Field> fields) {
  Event ev;
  ev.t = sim_time_s;
  ev.cat = cat;
  copy_truncated(ev.name, kNameChars, name);
  ev.is_span = is_span;
  ev.span_id = span_id;
  ev.duration_s = duration_s;
  for (const Field& f : fields) {
    if (ev.n_fields == kMaxFields) break;
    StoredField& sf = ev.fields[ev.n_fields++];
    copy_truncated(sf.key, kKeyChars, f.key);
    sf.type = f.type;
    sf.num = f.num;
    sf.i = f.i;
    sf.u = f.u;
    sf.b = f.b;
    if (f.type == Field::Type::kString) {
      copy_truncated(sf.s, kStringChars, f.s);
    }
  }
  const util::LockGuard lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[oldest_] = ev;
    oldest_ = (oldest_ + 1) % capacity_;
  }
  ++recorded_;
}

std::size_t FlightRecorder::size() const {
  const util::LockGuard lock(mu_);
  return ring_.size();
}

std::uint64_t FlightRecorder::recorded_total() const {
  const util::LockGuard lock(mu_);
  return recorded_;
}

void FlightRecorder::clear() {
  const util::LockGuard lock(mu_);
  ring_.clear();
  oldest_ = 0;
  recorded_ = 0;
}

void FlightRecorder::dump(std::ostream& os, std::string_view reason) const {
  const util::LockGuard lock(mu_);
  os << "{\"schema\":\"sid-flightrec-v1\",\"reason\":\"";
  write_escaped(os, reason);
  os << "\",\"capacity\":" << capacity_ << ",\"recorded\":" << recorded_
     << ",\"events\":" << ring_.size() << "}\n";
  std::vector<Field> fields;
  fields.reserve(kMaxFields);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const Event& ev = ring_[(oldest_ + i) % ring_.size()];
    fields.clear();
    for (std::size_t j = 0; j < ev.n_fields; ++j) {
      fields.push_back(ev.fields[j].view());
    }
    write_event_line(os, ev.cat, ev.name, ev.t, ev.duration_s,
                     ev.is_span ? &ev.span_id : nullptr, fields);
  }
}

void FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason) const {
  std::ofstream os(path, std::ios::trunc);
  util::require(os.is_open(), "FlightRecorder::dump_to_file: cannot open " +
                                  path);
  dump(os, reason);
}

void FlightRecorder::set_auto_dump_path(std::string path) {
  const util::LockGuard lock(mu_);
  auto_path_ = std::move(path);
}

void FlightRecorder::auto_dump(std::string_view reason) const {
  std::string path;
  {
    const util::LockGuard lock(mu_);
    path = auto_path_;
  }
  if (path.empty()) return;
  dump_to_file(path, reason);
}

void FlightRecorder::install_crash_dump(std::string path) {
  {
    const util::LockGuard lock(crash_mu());
    g_crash_recorder = this;
    crash_path() = std::move(path);
  }
  util::set_crash_hook(&crash_dump_trampoline);
}

}  // namespace sid::obs
