// C10 — Discrete-event engine throughput (the §IV.C substrate).
//
// Paper: simulation is the stand-in for testbeds researchers do not have;
// that is only viable if the engine sustains millions of events per second.
// This is the one google-benchmark microbenchmark binary: engine event
// throughput, scheduler-queue comparisons (4-ary heap vs calendar queue),
// payload allocation (slab vs arena), fluid-channel transfers, fabric
// messages, end-to-end PFS model ops, and client page-cache churn.
//
// Shape gates: the binary exits 1 if a BM_PageCacheChurn op at 16384 pages
// costs more than 1.5x an op at 1024 pages (the cache core must stay O(1)
// per page as it grows), or if a BM_FabricSend message with 1024 in flight
// costs more than 1.5x one with 16 in flight (a fabric hop must stay
// O(log n)); the rows themselves are host timings.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cache/page_cache.hpp"
#include "net/fabric.hpp"
#include "pfs/pfs.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

using namespace pio;
using namespace pio::literals;

namespace {

void BM_EngineEventStorm(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    Rng rng = engine.rng_stream(1);
    for (std::uint64_t i = 0; i < events; ++i) {
      engine.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 20))),
                         [] {});
    }
    const auto executed = engine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_EngineEventStorm)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_EngineSelfScheduling(benchmark::State& state) {
  // Event-chain pattern: each handler schedules the next (server-loop shape).
  const auto depth = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t remaining = depth;
    std::function<void()> next = [&] {
      if (--remaining > 0) engine.schedule_after(1_us, next);
    };
    engine.schedule_after(1_us, next);
    engine.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(depth) * state.iterations());
}
BENCHMARK(BM_EngineSelfScheduling)->Arg(1 << 14)->Arg(1 << 17);

// ---- BM_SchedulerQueue: heap vs calendar head-to-head (DESIGN.md §16) ----
// Both produce the identical fire order (tests/test_parsim.cpp); these rows
// measure the constant-factor question the QueueKind knob exists to answer.
// arg0 selects the queue (0 = 4-ary heap, 1 = calendar), arg1 the volume.

sim::EngineOptions queue_options(std::int64_t kind) {
  return sim::EngineOptions{kind == 0 ? sim::QueueKind::kQuadHeap : sim::QueueKind::kCalendar};
}

void BM_SchedulerQueueStorm(benchmark::State& state) {
  // Uniform storm: the distribution calendar queues were built for — a large
  // standing population with uniform-ish times, pushed up front, drained flat.
  const auto events = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state) {
    sim::Engine engine{1, queue_options(state.range(0))};
    Rng rng = engine.rng_stream(1);
    for (std::uint64_t i = 0; i < events; ++i) {
      engine.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 20))),
                         [] {});
    }
    const auto executed = engine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_SchedulerQueueStorm)
    ->Args({0, 1 << 15})
    ->Args({1, 1 << 15})
    ->Args({0, 1 << 18})
    ->Args({1, 1 << 18});

void BM_SchedulerQueueSelfScheduling(benchmark::State& state) {
  // Steady-state self-scheduling: a standing population of handlers that
  // each reschedule themselves at a random future offset (server-loop
  // shape) — pops and pushes interleave, walking the calendar cursor.
  const auto events = static_cast<std::uint64_t>(state.range(1));
  constexpr std::uint64_t kPopulation = 4096;
  for (auto _ : state) {
    sim::Engine engine{1, queue_options(state.range(0))};
    Rng rng = engine.rng_stream(1);
    std::uint64_t budget = events;
    std::function<void()> tick = [&] {
      if (budget == 0) return;
      --budget;
      engine.schedule_after(
          SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 14) + 1)), tick);
    };
    for (std::uint64_t p = 0; p < kPopulation; ++p) {
      engine.schedule_after(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 14))),
                            tick);
    }
    const auto executed = engine.run();
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) * state.iterations());
}
BENCHMARK(BM_SchedulerQueueSelfScheduling)->Args({0, 1 << 15})->Args({1, 1 << 15});

void BM_EngineOversizePayloads(benchmark::State& state) {
  // Fat captures (> Task::kInlineBytes) force the oversized-payload path:
  // arg0 = 0 routes them through the engine's size-class slab, 1 through a
  // bump-allocating PayloadArena (the sharded engine's per-domain setup).
  constexpr std::uint64_t kEvents = 1 << 15;
  for (auto _ : state) {
    sim::PayloadArena arena;
    sim::Engine engine;
    if (state.range(0) == 1) engine.use_arena(&arena);
    Rng rng = engine.rng_stream(1);
    std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      std::array<std::uint64_t, 16> fat{};
      fat[0] = i;
      engine.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(1u << 20))),
                         // piolint: allow(C2) — run() drains before sink leaves scope.
                         [&sink, fat] { sink += fat[0]; });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kEvents) * state.iterations());
}
BENCHMARK(BM_EngineOversizePayloads)->Arg(0)->Arg(1);

void BM_FairShareChannel(benchmark::State& state) {
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    sim::FairShareChannel::FlowPool pool;
    sim::FairShareChannel link{engine, Bandwidth::from_gib_per_sec(10.0), 1_us, pool};
    for (std::uint64_t f = 0; f < flows; ++f) {
      // piolint: allow(C2) — engine.run() drains before link leaves scope.
      engine.schedule_at(SimTime::from_us(static_cast<double>(f % 64)), [&link] {
        link.transfer(1_MiB, [] {});
      });
    }
    engine.run();
    benchmark::DoNotOptimize(link.bytes_moved());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) * state.iterations());
}
BENCHMARK(BM_FairShareChannel)->Arg(256)->Arg(1024)->Arg(4096);

// ---- BM_FabricSend: messages through a 64-endpoint fabric, closed loop ----
// `range(0)` messages are kept in flight: each delivery sends the next, from
// endpoint i mod 64 to (7i + 3) mod 64, 4 KiB–512 KiB. One Fabric serves
// an untimed warm-up storm and then every iteration, so timed hops find
// their pools warm and allocate nothing. Items are messages.
constexpr std::uint64_t kFabricMessages = 16384;
constexpr std::uint32_t kFabricEndpoints = 64;

struct FabricLoop {
  net::Fabric* fabric;
  std::uint64_t sent = 0;
  void send() {
    if (sent == kFabricMessages) return;
    const std::uint64_t i = sent++;
    fabric->send(static_cast<net::EndpointId>(i % kFabricEndpoints),
                 static_cast<net::EndpointId>((7 * i + 3) % kFabricEndpoints),
                 Bytes{std::uint64_t{4096} << (i % 8)}, [this] { send(); });
  }
};

void BM_FabricSend(benchmark::State& state) {
  const auto in_flight = static_cast<std::uint64_t>(state.range(0));
  sim::Engine engine;
  net::FabricConfig config;
  config.core_links = 8.0;
  net::Fabric fabric{engine, config, kFabricEndpoints};
  const auto storm = [&] {
    FabricLoop loop{&fabric};
    for (std::uint64_t k = 0; k < in_flight; ++k) loop.send();
    engine.run();
  };
  storm();  // untimed: sizes the pools, heaps and engine slots
  for (auto _ : state) {
    storm();
    benchmark::DoNotOptimize(fabric.stats().messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kFabricMessages) * state.iterations());
}
BENCHMARK(BM_FabricSend)->Arg(16)->Arg(1024);

void BM_PfsModelEndToEnd(benchmark::State& state) {
  const auto ops = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    pfs::PfsConfig config;
    config.clients = 8;
    config.io_nodes = 2;
    config.osts = 8;
    config.disk_kind = pfs::DiskKind::kSsd;
    pfs::PfsModel model{engine, config};
    pfs::MetaResult created;
    model.meta(0, pfs::MetaOp::kCreate, "/bench", [&](pfs::MetaResult r) { created = r; });
    engine.run();
    for (std::uint64_t i = 0; i < ops; ++i) {
      model.io(static_cast<pfs::ClientId>(i % 8), "/bench", created.inode->layout,
               (i % 64) << 20, 1_MiB, true, [](pfs::IoResult) {});
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops) * state.iterations());
}
BENCHMARK(BM_PfsModelEndToEnd)->Arg(256)->Arg(2048);

// ---- BM_PageCacheChurn: the client cache core under a DL-style stream ----
// A 2Q cache of `pages` pages serves 16 ops per page over a working set of
// twice its size in four files: 75% reads (a miss inserts the page), 25%
// writes (insert + mark dirty); write-back completes oldest-first whenever
// more than a quarter of the cache is dirty. Items are cache ops.
constexpr std::uint64_t kChurnOpsPerPage = 16;

void BM_PageCacheChurn(benchmark::State& state) {
  const auto pages = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t ops = kChurnOpsPerPage * pages;
  struct ChurnOp {
    cache::PageKey key;
    bool write = false;
  };
  std::vector<ChurnOp> stream(ops);
  Rng rng{42};
  for (ChurnOp& op : stream) {
    op.key = cache::PageKey{1 + rng.next_below(4), rng.next_below(pages / 2)};
    op.write = rng.next_below(4) == 0;
  }
  cache::CacheConfig config;
  config.capacity_pages = pages;
  config.max_dirty_pages = pages / 4;
  config.policy = cache::EvictionPolicy::kTwoQ;
  for (auto _ : state) {
    cache::PageCache pc{config};
    std::deque<cache::PageKey> dirtied;
    for (const ChurnOp& op : stream) {
      if (op.write) {
        (void)pc.insert(op.key, SimTime::zero());
        pc.mark_dirty(op.key);
        dirtied.push_back(op.key);
        while (pc.dirty_count() > config.max_dirty_pages) {
          pc.mark_clean(dirtied.front());
          dirtied.pop_front();
        }
      } else if (pc.lookup(op.key, SimTime::zero()) == nullptr) {
        (void)pc.insert(op.key, SimTime::zero());
      }
    }
    benchmark::DoNotOptimize(pc.stats().hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops) * state.iterations());
}
BENCHMARK(BM_PageCacheChurn)->Arg(1024)->Arg(16384);

/// Items one iteration of a shape-gated benchmark processes (0: not gated).
std::uint64_t gated_items(const std::string& function, std::uint64_t arg) {
  if (function == "BM_PageCacheChurn") return kChurnOpsPerPage * arg;
  if (function == "BM_FabricSend") return kFabricMessages;
  return 0;
}

/// Wraps the reporter the flags asked for and keeps the per-item CPU time of
/// each gated row (CPU, not wall: the gates are about the code, not about
/// who else holds the host): the fastest repetition, or the median
/// aggregate when one is reported (it follows its repetitions).
template <class Base>
class ShapeCapture : public Base {
 public:
  using Base::Base;

  void ReportRuns(const std::vector<benchmark::BenchmarkReporter::Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::uint64_t arg = std::stoull(run.run_name.args.empty() ? "0" : run.run_name.args);
      const std::uint64_t items = gated_items(run.run_name.function_name, arg);
      if (items == 0) continue;
      const bool aggregate = run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate;
      if (aggregate && run.aggregate_name != "median") continue;
      const double ns = run.GetAdjustedCPUTime() /
                        benchmark::GetTimeUnitMultiplier(run.time_unit) * 1e9 /
                        static_cast<double>(items);
      const auto [it, fresh] = ns_per_item.try_emplace({run.run_name.function_name, arg}, ns);
      if (!fresh) it->second = aggregate ? ns : std::min(it->second, ns);
    }
    Base::ReportRuns(runs);
  }
  std::map<std::pair<std::string, std::uint64_t>, double> ns_per_item;
};

/// 1 when `function`'s per-item cost at `large` exceeds 1.5x its cost at
/// `small`; 0 when it holds or either row was filtered out.
int check_shape(const std::map<std::pair<std::string, std::uint64_t>, double>& ns_per_item,
                const std::string& function, std::uint64_t small, std::uint64_t large,
                const char* unit) {
  const auto lo = ns_per_item.find({function, small});
  const auto hi = ns_per_item.find({function, large});
  if (lo == ns_per_item.end() || hi == ns_per_item.end()) return 0;
  const double ratio = hi->second / lo->second;
  std::fprintf(stderr, "%s shape: %.1f ns/item at %llu %s, %.1f at %llu (%.2fx)\n",
               function.c_str(), lo->second, static_cast<unsigned long long>(small), unit,
               hi->second, static_cast<unsigned long long>(large), ratio);
  if (ratio > 1.5) {
    std::fprintf(stderr, "shape check VIOLATED: %s per-item cost grows with %s (> 1.5x)\n",
                 function.c_str(), unit);
    return 1;
  }
  return 0;
}

template <class Reporter>
int run_and_check(Reporter& reporter) {
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const int churn = check_shape(reporter.ns_per_item, "BM_PageCacheChurn", 1024, 16384, "pages");
  const int fabric = check_shape(reporter.ns_per_item, "BM_FabricSend", 16, 1024, "in flight");
  return churn | fabric;
}

}  // namespace

int main(int argc, char** argv) {
  // The display reporter is ours (it feeds the shape gate), so pick the one
  // --benchmark_format asks for, colour only on a terminal as by default.
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark_format=json") == 0) json = true;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (json) {
    ShapeCapture<benchmark::JSONReporter> reporter;
    return run_and_check(reporter);
  }
  ShapeCapture<benchmark::ConsoleReporter> reporter{
      isatty(STDOUT_FILENO) != 0 ? benchmark::ConsoleReporter::OO_Color
                                 : benchmark::ConsoleReporter::OO_None};
  return run_and_check(reporter);
}
