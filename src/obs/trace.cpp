#include "obs/trace.h"

#include <array>
#include <cstdio>

#include "obs/recorder.h"
#include "obs/span.h"
#include "util/error.h"

namespace sid::obs {

namespace {

struct CategoryEntry {
  Category cat;
  std::string_view name;
};

constexpr std::array<CategoryEntry, 7> kCategories{{
    {Category::kNet, "net"},
    {Category::kNode, "node"},
    {Category::kCluster, "cluster"},
    {Category::kSink, "sink"},
    {Category::kEnergy, "energy"},
    {Category::kFault, "fault"},
    {Category::kDefense, "defense"},
}};

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else {
      os << c;
    }
  }
}

void write_event_line(std::ostream& os, Category cat, std::string_view name,
                      double sim_time_s, double duration_s,
                      const std::uint64_t* span_id,
                      std::span<const Field> fields) {
  os << "{\"t\":" << fmt_double(sim_time_s) << ",\"cat\":\""
     << category_name(cat) << "\",\"name\":\"";
  write_escaped(os, name);
  os << '"';
  if (span_id != nullptr) {
    os << ",\"span\":{\"id\":\"" << span_id_hex(*span_id)
       << "\",\"dur\":" << fmt_double(duration_s) << '}';
  }
  os << ",\"args\":{";
  bool first = true;
  for (const Field& f : fields) {
    if (!first) os << ',';
    first = false;
    os << '"';
    write_escaped(os, f.key);
    os << "\":";
    switch (f.type) {
      case Field::Type::kDouble:
        os << fmt_double(f.num);
        break;
      case Field::Type::kInt:
        os << f.i;
        break;
      case Field::Type::kUInt:
        os << f.u;
        break;
      case Field::Type::kBool:
        os << (f.b ? "true" : "false");
        break;
      case Field::Type::kString:
        os << '"';
        write_escaped(os, f.s);
        os << '"';
        break;
    }
  }
  os << "}}\n";
}

std::string_view category_name(Category cat) {
  for (const auto& entry : kCategories) {
    if (entry.cat == cat) return entry.name;
  }
  return "unknown";
}

std::optional<Category> parse_category(std::string_view name) {
  for (const auto& entry : kCategories) {
    if (entry.name == name) return entry.cat;
  }
  return std::nullopt;
}

unsigned parse_category_list(std::string_view csv) {
  if (csv.empty() || csv == "all") return kAllCategories;
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string_view token =
        csv.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                        : comma - pos);
    if (!token.empty()) {
      const auto cat = parse_category(token);
      util::require(cat.has_value(),
                    "parse_category_list: unknown trace category '" +
                        std::string(token) + "'");
      mask |= static_cast<unsigned>(*cat);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  util::require(mask != 0, "parse_category_list: no categories selected");
  return mask;
}

void Tracer::open(const std::string& path, unsigned categories) {
  auto file = std::make_unique<std::ofstream>(path, std::ios::trunc);
  util::require(file->is_open(), "Tracer::open: cannot open " + path);
  const util::LockGuard lock(mu_);
  file_ = std::move(file);
  out_.store(file_.get(), std::memory_order_relaxed);
  categories_.store(categories, std::memory_order_relaxed);
}

void Tracer::attach(std::ostream* os, unsigned categories) {
  util::require(os != nullptr, "Tracer::attach: null stream");
  const util::LockGuard lock(mu_);
  file_.reset();
  out_.store(os, std::memory_order_relaxed);
  categories_.store(categories, std::memory_order_relaxed);
}

void Tracer::close() {
  const util::LockGuard lock(mu_);
  if (std::ostream* os = out_.load(std::memory_order_relaxed)) os->flush();
  file_.reset();
  out_.store(nullptr, std::memory_order_relaxed);
}

std::uint64_t Tracer::events_emitted() const {
  const util::LockGuard lock(mu_);
  return events_;
}

void Tracer::emit(Category cat, std::string_view name, double sim_time_s,
                  std::initializer_list<Field> fields) {
  if (FlightRecorder* rec = recorder()) {
    rec->record(cat, name, sim_time_s, fields);
  }
  if (!enabled(cat)) return;
  write_line(cat, name, sim_time_s, 0.0, nullptr, fields);
}

void Tracer::emit_span(Category cat, std::string_view name, double sim_time_s,
                       double duration_s, std::uint64_t span_id,
                       std::initializer_list<Field> fields) {
  if (FlightRecorder* rec = recorder()) {
    rec->record_span(cat, name, sim_time_s, duration_s, span_id, fields);
  }
  if (!enabled(cat)) return;
  write_line(cat, name, sim_time_s, duration_s, &span_id, fields);
}

void Tracer::write_line(Category cat, std::string_view name,
                        double sim_time_s, double duration_s,
                        const std::uint64_t* span_id,
                        std::initializer_list<Field> fields) {
  // Serialize the whole line: concurrent emitters never interleave bytes.
  const util::LockGuard lock(mu_);
  std::ostream* out = out_.load(std::memory_order_relaxed);
  if (out == nullptr) return;  // closed between the check and the lock
  write_event_line(*out, cat, name, sim_time_s, duration_s, span_id, fields);
  ++events_;
}

}  // namespace sid::obs
