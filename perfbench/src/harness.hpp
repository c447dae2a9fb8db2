// Shared harness pieces of the PIOEval benchmark: the in-memory span
// recorder (the traced run), the result report, and the per-workload
// interface main.cpp drives.
//
// The benchmark measures the library from outside: every span is recorded
// by the benchmark around a public call into one layer, never inside
// library code. A span is named "<layer>.<call>", so a layer's self time is
// the summed duration of its spans minus the part their child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "common/types.hpp"
#include "pfs/pfs.hpp"
#include "svc/messages.hpp"
#include "trace/event.hpp"
#include "workload/op.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// One timed call into a layer.
struct Span {
  std::string name;           ///< "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;  ///< spans of one request share it (0 = none)
  std::uint32_t thread = 0;   ///< recording thread (rank threads on h5)
};

/// In-memory span and counter recorder. Disabled, every call is a no-op and
/// reads no clock, so the untraced run pays nothing for it. Thread-safe:
/// rank threads of the measured path record concurrently.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span: opened at construction, closed at destruction. Spans opened
  /// while it is open on the same thread become its children.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_ = nullptr;  ///< null when tracing is off
    std::int64_t index_ = -1;
    std::int64_t prev_parent_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name, std::uint64_t request = 0) {
    return Scope{*this, name, request};
  }

  /// A span whose ends were observed apart (e.g. submit → result arrival).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t request = 0);

  /// Counter recorded at a call boundary.
  void count(const std::string& name, std::uint64_t n = 1);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;
  /// Self time per layer (the span-name prefix before the first '.'), ms.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Write every span as Chrome trace-event JSON ("X" complete events),
  /// viewable offline in chrome://tracing or Perfetto.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::uint64_t request, std::int64_t parent);
  void close(std::int64_t index);

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

/// Thread-safe trace::Sink that only counts events (the h5 → mio →
/// TracingBackend path records every POSIX call into it).
class CountingSink final : public pio::trace::Sink {
 public:
  void record(const pio::trace::TraceEvent& /*event*/) override {
    events_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events() const { return events_.load(); }

 private:
  std::atomic<std::uint64_t> events_{0};
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one benchmark invocation reports.
class Report {
 public:
  /// Add a metric; a second value for the same name is ignored, so a
  /// workload's own measurement wins over a ladder rung's.
  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  /// A count that must repeat exactly across runs of one seed.
  void exact(const std::string& name, std::uint64_t value);
  /// Correctness gate: a false `ok` makes the whole run incorrect.
  void check(bool ok, const std::string& what);
  /// Free-form provenance / human-readable extra.
  void info(const std::string& key, const std::string& value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  /// One JSON object: correct/attempted/failed/metrics plus the exact
  /// counts, failures and provenance for run.py to print and verify.
  [[nodiscard]] std::string json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::uint64_t>> exact_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
};

/// Result of one measured iteration of a workload.
struct Iteration {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< one sample per op (or op window)
  std::uint64_t digest = 0;        ///< FNV fold of the iteration's results
  /// Counts that must repeat exactly for the same inputs.
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::vector<std::string> failures;
};

/// The workload's own op shape, fed to the ladder rungs that time one layer
/// alone (and to the rungs standing in for layers off the workload's path).
struct OpShape {
  std::uint32_t flows = 1;                ///< concurrent ops at full load
  pio::Bytes transfer = pio::Bytes::from_kib(64);  ///< bytes per data op
  pio::pfs::PfsConfig system{};
  pio::pfs::StripeLayout layout{};
  pio::cache::CacheConfig cache{};        ///< cache rung config
  pio::svc::CampaignSpec point_spec{};    ///< one-workload campaign: eval/svc rungs
  std::uint32_t h5_calls = 4;             ///< h5/mio rungs: write+read pairs (first: warm-up)
  /// Driver rung: the shape as a simulated workload (for workloads whose
  /// own path does not run the simulator).
  std::unique_ptr<pio::workload::Workload> (*sim_workload)(const OpShape&) = nullptr;
};

/// One benchmark workload.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs from the seed; repeated and timed as setup_s.
  virtual void setup() = 0;
  /// One measured iteration. `index` lets a workload make fresh inputs per
  /// iteration; the same index after the same setup gives the same result.
  virtual Iteration run(std::uint64_t index, Spans& spans) = 0;
  /// Whether digests of different iteration indices must match.
  [[nodiscard]] virtual bool digest_repeats() const { return true; }
  /// Per-layer metrics of the layers on this workload's own path, from the
  /// traced iteration just run.
  virtual void layer_metrics(Report& report, const Iteration& traced) = 0;
  /// Layers whose per-layer metrics come from this workload's own path.
  [[nodiscard]] virtual std::vector<std::string> own_layers() const = 0;
  [[nodiscard]] virtual OpShape shape() const = 0;
};

struct Scale {
  bool tiny = false;  ///< smoke-test size
};

[[nodiscard]] std::unique_ptr<Workload> make_ckpt_storm(std::uint64_t seed, Scale scale);
[[nodiscard]] std::unique_ptr<Workload> make_dl_epochs_cached(std::uint64_t seed, Scale scale);
[[nodiscard]] std::unique_ptr<Workload> make_svc_campaigns(std::uint64_t seed, Scale scale);

/// Run every ladder rung for the layers not in `own_layers`, plus the
/// alone rungs of every layer, at `shape`; metrics go to `report`.
void run_ladder(const OpShape& shape, const std::vector<std::string>& own_layers, Spans& spans,
                Report& report, Scale scale);

// ---------------------------------------------------------------- helpers

/// Median (mean of the middle two for an even count); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Tail latency that one host hiccup cannot move: the p99 of every 1000
/// consecutive samples (ten beyond it), median over those windows; the
/// plain p99 when the run has fewer than two windows.
[[nodiscard]] double windowed_p99(const std::vector<double>& samples);
[[nodiscard]] double peak_rss_mib();
/// `total / n`, with an empty count treated as one.
[[nodiscard]] inline double per(double total, std::uint64_t n) {
  return total / static_cast<double>(n == 0 ? 1 : n);
}
[[nodiscard]] std::uint32_t bench_threads();

}  // namespace perfbench
