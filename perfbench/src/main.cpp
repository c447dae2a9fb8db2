// PIOEval benchmark driver.
//
//   perfbench --workload <ckpt_storm|dl_epochs_cached|svc_campaigns>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]
//
// --trace 0 (the untraced run) sets the workload up several times (setup_s
// is the median), then runs measured iterations until --seconds have
// passed and reports the end-to-end metrics. --trace 1 (the traced run)
// runs one untraced and one traced iteration of the same inputs, checks that
// their results are identical, and reports the per-layer metrics: the
// workload's own layers from the traced iteration, every other layer from
// its ladder rung fed with the workload's op shape.
//
// The last stdout line is "RESULT <json>"; run.py checks it against
// BENCHMARK.json and prints the final result line.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <utility>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale{};
  std::string trace_out;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload <ckpt_storm|dl_epochs_cached|svc_campaigns>"
               " --seed <n> --seconds <s> --trace <0|1> [--tiny] [--trace-out <path>]\n";
  return 2;
}

std::unique_ptr<Workload> make(const Options& o) {
  if (o.workload == "ckpt_storm") return make_ckpt_storm(o.seed, o.scale);
  if (o.workload == "dl_epochs_cached") return make_dl_epochs_cached(o.seed, o.scale);
  if (o.workload == "svc_campaigns") return make_svc_campaigns(o.seed, o.scale);
  return nullptr;
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream out;
  out << std::setprecision(precision) << v;
  return out.str();
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

/// Host CPU ticks from /proc/stat: {stolen by the hypervisor, all}.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream stat{"/proc/stat"};
  std::string cpu;
  stat >> cpu;
  std::uint64_t all = 0, steal = 0;
  for (int field = 0; field < 10 && stat; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    all += v;
    if (field == 7) steal = v;
  }
  return {steal, all};
}

void stamp_host(Report& report) {
  double load[3] = {-1.0, -1.0, -1.0};
  if (::getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  report.info("host.cpus", std::to_string(std::thread::hardware_concurrency()));
  report.info("host.load_avg", fmt(load[0], 3) + " " + fmt(load[1], 3) + " " + fmt(load[2], 3));
  report.info("build.type", PERFBENCH_BUILD_TYPE);
  report.info("bench.threads", std::to_string(bench_threads()));
}

/// Same inputs, same results: every exact count (and the digest, where the
/// workload repeats its inputs) of `it` must equal `first`'s.
void check_repeat(Report& report, const Iteration& first, const Iteration& it,
                  bool digest_repeats, const std::string& what) {
  report.check(first.counts == it.counts, what + ": exact counts differ");
  if (digest_repeats) report.check(first.digest == it.digest, what + ": digest differs");
}

/// The end-to-end metrics under their workload-specific names.
void print_workload_names(const Options& o, double ops_per_s, double p50, double p99,
                       double fail_ratio) {
  std::cout << "workload-specific names:\n";
  if (o.workload == "svc_campaigns") {
    std::cout << "  points_per_s   " << fmt(ops_per_s, 6) << " points/s\n"
              << "  point_p50_ms   " << fmt(p50, 6) << " ms\n"
              << "  point_p99_ms   " << fmt(p99, 6) << " ms\n";
  } else {
    std::cout << "  sim_ops_per_s  " << fmt(ops_per_s, 6) << " simulated ops per host second\n";
  }
  std::cout << "  fail_ratio     " << fmt(fail_ratio, 6) << " ratio\n";
}

void run_untraced(const Options& o, Workload& w, Report& report) {
  // Set-up is repeated; the median is setup_s and the last one stays live.
  const int setups = o.scale.tiny ? 3 : 11;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    const std::int64_t start = now_ns();
    w.setup();
    setup_s.push_back(seconds_since(start));
  }

  Spans off{false};
  std::vector<Iteration> its;
  double measured = 0.0;
  const std::int64_t wall_start = now_ns();
  // At least two iterations so the exact-repeat check always runs; stop
  // early when an iteration is far longer than planned (guards the exit
  // deadline on a slow host).
  while (its.size() < 2 || (measured < o.seconds && seconds_since(wall_start) < 3.0 * o.seconds)) {
    its.push_back(w.run(its.size(), off));
    measured += its.back().wall_s;
  }

  std::vector<double> rates, latency;
  for (std::size_t i = 0; i < its.size(); ++i) {
    const Iteration& it = its[i];
    for (const std::string& f : it.failures) report.check(false, f);
    check_repeat(report, its.front(), it, w.digest_repeats(),
                 "iteration " + std::to_string(i) + " vs 0");
    report.attempted += it.ops;
    report.failed += it.failed;
    rates.push_back(static_cast<double>(it.ops) / it.wall_s);
    latency.insert(latency.end(), it.latency_ms.begin(), it.latency_ms.end());
  }
  const double ops_per_s = median(rates);
  const double p50 = quantile(latency, 0.50);
  const double p99 = windowed_p99(latency);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", ops_per_s, "1/s");
  report.metric("op_p50_ms", p50, "ms");
  report.metric("op_p99_ms", p99, "ms");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  for (const auto& [name, value] : its.front().counts) report.exact(name, value);
  report.exact("digest", its.front().digest);

  const double fail_ratio = per(static_cast<double>(report.failed), report.attempted);
  std::cout << "iterations " << its.size() << ", measured " << fmt(measured, 5) << " s, "
            << latency.size() << " latency samples (" << latency.size() / 100
            << " beyond p99; op_p99_ms over " << std::max<std::size_t>(1, latency.size() / 1000)
            << " window(s) of 1000), digest " << hex(its.front().digest) << "\n";
  print_workload_names(o, ops_per_s, p50, p99, fail_ratio);
}

void run_traced(const Options& o, Workload& w, Report& report) {
  // The same iterations twice, untraced then traced, each after a fresh
  // set-up: results must match exactly, and the wall-time difference is
  // the tracing overhead.
  Spans off{false};
  w.setup();
  std::vector<Iteration> untraced;
  double untraced_s = 0.0;
  while (untraced.empty() || untraced_s < std::min(2.0, o.seconds / 4.0)) {
    untraced.push_back(w.run(untraced.size(), off));
    untraced_s += untraced.back().wall_s;
  }
  Spans spans{true};
  w.setup();
  std::vector<Iteration> traced_its;
  double traced_s = 0.0;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    traced_its.push_back(w.run(i, spans));
    traced_s += traced_its.back().wall_s;
    const Iteration& a = untraced[i];
    const Iteration& b = traced_its.back();
    for (const Iteration* it : {&a, &b}) {
      for (const std::string& f : it->failures) report.check(false, f);
      report.attempted += it->ops;
      report.failed += it->failed;
    }
    report.check(a.digest == b.digest, "traced and untraced digests differ");
    report.check(a.counts == b.counts, "traced and untraced exact counts differ");
  }
  // Iteration 0 is what an untraced run of the same seed reports first.
  for (const auto& [name, value] : traced_its.front().counts) report.exact(name, value);
  report.exact("digest", traced_its.front().digest);
  const Iteration& traced = traced_its.back();

  w.layer_metrics(report, traced);
  run_ladder(w.shape(), w.own_layers(), spans, report, o.scale);
  report.metric("trace.overhead_s", traced_s - untraced_s, "s");
  report.metric("trace.spans", static_cast<double>(spans.size()), "count");

  std::cout << untraced.size() << " iterations: untraced " << fmt(untraced_s, 5) << " s, traced "
            << fmt(traced_s, 5) << " s, first digest " << hex(traced_its.front().digest)
            << " (both runs)\n";
  std::cout << "self time by layer (ms, spans recorded around public calls):\n";
  for (const auto& [layer, ms] : spans.self_ms_by_layer()) {
    std::cout << "  " << std::left << std::setw(10) << layer << std::right << fmt(ms, 6) << "\n";
  }
  std::cout << "counters at call boundaries:\n";
  for (const auto& [name, n] : spans.counters()) std::cout << "  " << name << " " << n << "\n";
  if (!o.trace_out.empty()) {
    report.check(spans.write_chrome_trace(o.trace_out), "cannot write " + o.trace_out);
    std::cout << "chrome trace: " << o.trace_out << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = value() == "1";
      } else if (arg == "--tiny") {
        o.scale.tiny = true;
      } else if (arg == "--trace-out") {
        o.trace_out = value();
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  std::unique_ptr<Workload> w = make(o);
  if (!w) return usage(argv[0]);
  if (std::string{PERFBENCH_BUILD_TYPE} != "Release") {
    std::cerr << "perfbench: refusing to record numbers from a non-Release build ("
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  Report report;
  stamp_host(report);
  const auto ticks_before = cpu_ticks();
  try {
    if (o.trace) {
      run_traced(o, *w, report);
    } else {
      run_untraced(o, *w, report);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string{"benchmark threw: "} + e.what());
  }
  const auto ticks_after = cpu_ticks();
  const double stolen = static_cast<double>(ticks_after.first - ticks_before.first);
  report.info("host.steal_pct",
              fmt(100.0 * per(stolen, ticks_after.second - ticks_before.second), 3));
  std::cout << "RESULT " << report.json() << std::endl;
  return 0;
}
