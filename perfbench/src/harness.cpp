#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

// Innermost open span of the calling thread (-1 = none).
thread_local std::int64_t t_parent = -1;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------- Spans

Spans::Scope::Scope(Spans& spans, const char* name, std::uint64_t request) {
  if (!spans.enabled()) return;
  spans_ = &spans;
  prev_parent_ = t_parent;
  index_ = spans.open(name, request, t_parent);
  t_parent = index_;
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  spans_->close(index_);
  t_parent = prev_parent_;
}

std::int64_t Spans::open(const char* name, std::uint64_t request, std::int64_t parent) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto [it, fresh] = thread_ids_.emplace(std::this_thread::get_id(),
                                               static_cast<std::uint32_t>(thread_ids_.size()));
  (void)fresh;
  spans_.push_back(Span{name, start, start, parent, request, it->second});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void Spans::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void Spans::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                std::uint64_t request) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock{mutex_};
  const auto [it, fresh] = thread_ids_.emplace(std::this_thread::get_id(),
                                               static_cast<std::uint32_t>(thread_ids_.size()));
  (void)fresh;
  spans_.push_back(Span{name, start_ns, end_ns, -1, request, it->second});
}

void Spans::count(const std::string& name, std::uint64_t n) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock{mutex_};
  counters_[name] += n;
}

std::size_t Spans::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

std::map<std::string, std::uint64_t> Spans::counters() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return counters_;
}

std::map<std::string, double> Spans::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  // Children run inside their parent on the same thread, so subtracting
  // their summed durations leaves exactly the uncovered part.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool Spans::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::ofstream out{path};
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << json_escape(s.name)
        << "\", \"cat\": \"" << json_escape(s.name.substr(0, s.name.find('.')))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << json_number(static_cast<double>(s.start_ns - origin) / 1e3)
        << ", \"dur\": " << json_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (has(name)) return;
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Report::exact(const std::string& name, std::uint64_t value) {
  exact_.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(metrics_[i].name)
        << "\": {\"value\": " << json_number(metrics_[i].value) << ", \"unit\": \""
        << json_escape(metrics_[i].unit) << "\"}";
  }
  // Exact counts are 64-bit; strings keep every bit through JSON.
  out << "}, \"exact\": {";
  for (std::size_t i = 0; i < exact_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(exact_[i].first) << "\": \""
        << exact_[i].second << "\"";
  }
  out << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(failures_[i]) << "\"";
  }
  out << "], \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << json_escape(info_[i].first) << "\": \""
        << json_escape(info_[i].second) << "\"";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- helpers

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  const auto middle = values.begin() + static_cast<std::ptrdiff_t>(mid);
  std::nth_element(values.begin(), middle, values.end());
  if (values.size() % 2 == 1) return *middle;
  return (*std::max_element(values.begin(), middle) + *middle) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double windowed_p99(const std::vector<double>& samples) {
  constexpr std::size_t kWindow = 1000;
  if (samples.size() < 2 * kWindow) return quantile(samples, 0.99);
  std::vector<double> p99s;
  for (std::size_t i = 0; i + kWindow <= samples.size(); i += kWindow) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(i);
    p99s.push_back(quantile({first, first + kWindow}, 0.99));
  }
  return median(p99s);
}

double peak_rss_mib() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint32_t bench_threads() {
  // Half the CPUs: a pool whose every round waits for its slowest thread
  // loses a third of its throughput when two of four CPUs are taken by
  // other load at 3 threads, a tenth at 2.
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw / 2, 1, 4);
}

}  // namespace perfbench
