// The two simulated, closed-loop workloads (ckpt_storm, dl_epochs_cached)
// and the shared observed simulated run.
#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "sim/engine.hpp"
#include "sim_run.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"

namespace perfbench {

using namespace pio;

namespace {

// Rng stream for the benchmark's own input perturbations (not a library
// stream: the library never sees the seed except through its inputs).
constexpr std::uint64_t kJitterStream = 0xBE7C0001;
// Host cost per simulated op is sampled over windows of this many completed
// ops, so every sample averages over the op kinds in flight at that point.
constexpr std::uint64_t kOpWindow = 64;

/// Wraps a workload so every op pull is observed: the driver pulls a rank's
/// next op when its previous one completed, so pulls count completed ops.
class ObservedWorkload final : public workload::Workload {
 public:
  struct Probe {
    const sim::Engine* engine = nullptr;
    Spans* spans = nullptr;
    std::uint64_t pending_peak = 0;
    std::uint64_t pulls = 0;
    std::int64_t window_start = 0;
    std::vector<double> op_ms;  ///< host ms per simulated op, one per window

    void pull() {
      pending_peak = std::max(pending_peak, engine->events_pending());
      if (++pulls % kOpWindow == 0) {
        const std::int64_t now = now_ns();
        op_ms.push_back(static_cast<double>(now - window_start) / 1e6 /
                        static_cast<double>(kOpWindow));
        window_start = now;
      }
    }
  };

  ObservedWorkload(const workload::Workload& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::int32_t ranks() const override { return inner_.ranks(); }
  [[nodiscard]] std::unique_ptr<workload::RankStream> stream(std::int32_t rank) const override {
    return std::make_unique<Stream>(inner_.stream(rank), probe_);
  }

 private:
  class Stream final : public workload::RankStream {
   public:
    Stream(std::unique_ptr<workload::RankStream> inner, Probe& probe)
        : inner_(std::move(inner)), probe_(probe) {}
    [[nodiscard]] std::optional<workload::Op> next() override {
      probe_.pull();
      const auto span = probe_.spans->scope("workload.next");
      return inner_->next();
    }

   private:
    std::unique_ptr<workload::RankStream> inner_;
    Probe& probe_;
  };

  const workload::Workload& inner_;
  Probe& probe_;
};

/// A simulated closed-loop workload: generated once per setup, simulated
/// once per iteration on a fresh engine and model.
class SimBench final : public perfbench::Workload {
 public:
  using Generator = std::unique_ptr<workload::VectorWorkload> (*)(std::uint64_t seed, Scale scale);

  SimBench(std::uint64_t seed, Scale scale, Generator generate, pfs::PfsConfig system,
           driver::SimRunConfig config, OpShape (*shape_of)(Scale))
      : seed_(seed),
        scale_(scale),
        generate_(generate),
        system_(std::move(system)),
        config_(std::move(config)),
        shape_(shape_of) {}

  void setup() override {
    const std::int64_t start = now_ns();
    workload_ = generate_(seed_, scale_);
    gen_s_ = seconds_since(start);
  }

  Iteration run(std::uint64_t /*index*/, Spans& spans) override {
    last_ = run_simulation(*workload_, system_, config_, seed_, spans);
    Iteration it;
    it.wall_s = last_.wall_s;
    it.ops = last_.result.ops;
    it.failed = last_.result.failed_ops;
    it.latency_ms = last_.op_ms;
    it.digest = last_.digest;
    it.counts = exact_counts(last_);
    it.failures = last_.failures;
    return it;
  }

  void layer_metrics(Report& report, const Iteration& /*traced*/) override {
    sim_layer_metrics(report, last_, gen_s_);
  }

  [[nodiscard]] std::vector<std::string> own_layers() const override {
    return {"sim", "net", "pfs", "driver", "workload", "cache"};
  }

  [[nodiscard]] OpShape shape() const override { return shape_(scale_); }

 private:
  std::uint64_t seed_;
  Scale scale_;
  Generator generate_;
  pfs::PfsConfig system_;
  driver::SimRunConfig config_;
  OpShape (*shape_)(Scale);
  std::unique_ptr<workload::VectorWorkload> workload_;
  double gen_s_ = 0.0;
  SimOutcome last_;
};

// ---------------------------------------------------------------- ckpt_storm

std::int32_t ckpt_ranks(Scale scale) { return scale.tiny ? 64 : 1024; }

pfs::PfsConfig ssd_testbed() {
  pfs::PfsConfig system;
  system.clients = 16;
  system.io_nodes = 4;
  system.osts = 8;
  system.disk_kind = pfs::DiskKind::kSsd;
  return system;
}

pfs::StripeLayout eight_wide() {
  pfs::StripeLayout layout;
  layout.stripe_count = 8;
  return layout;
}

/// IOR-style checkpoint: every rank writes its 32 MiB block of one shared
/// file in 8 MiB transfers, then reads it back. The seed draws each rank's
/// think time before its write and read phases (0-10 us simulated): enough
/// to change every result, small enough to keep the storm's shape.
std::unique_ptr<workload::VectorWorkload> ckpt_generate(std::uint64_t seed, Scale scale) {
  workload::IorConfig ior;
  ior.ranks = ckpt_ranks(scale);
  ior.block_size = Bytes::from_mib(32);
  ior.transfer_size = Bytes::from_mib(8);
  ior.read_phase = true;
  ior.directory = "/ckpt";
  auto per_rank = workload::materialize(*workload::ior_like(ior));
  Rng rng{seed, kJitterStream};
  for (auto& ops : per_rank) {
    for (const workload::OpKind phase : {workload::OpKind::kWrite, workload::OpKind::kRead}) {
      const auto first = std::find_if(ops.begin(), ops.end(), [&](const workload::Op& op) {
        return op.kind == phase;
      });
      if (first == ops.end()) continue;
      const auto think = SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(10'000)));
      ops.insert(first, workload::Op::compute(think));
    }
  }
  return std::make_unique<workload::VectorWorkload>("ckpt_storm", std::move(per_rank));
}

OpShape ckpt_shape(Scale scale) {
  OpShape shape;
  shape.flows = static_cast<std::uint32_t>(ckpt_ranks(scale));
  shape.transfer = Bytes::from_mib(8);
  shape.system = ssd_testbed();
  shape.layout = eight_wide();
  shape.cache.enabled = true;
  shape.cache.policy = cache::EvictionPolicy::kTwoQ;
  shape.cache.capacity_pages = 4096;
  svc::WorkloadSpec point;
  point.kind = svc::WorkloadKind::kIor;
  point.ranks = 16;
  point.block_kib = 16 * 1024;
  point.transfer_kib = 8 * 1024;
  point.read_phase = true;
  shape.point_spec.testbed = {16, 4, 8, 1};
  shape.point_spec.model = {16, 4, 8, 1};
  shape.point_spec.workloads = {point};
  shape.h5_calls = 2;
  return shape;
}

// ---------------------------------------------------------------- dl_epochs_cached

workload::DlioConfig dl_config(std::uint64_t seed, Scale scale) {
  workload::DlioConfig dl;
  dl.ranks = scale.tiny ? 2 : 8;
  dl.samples = scale.tiny ? 512 : 16'384;
  dl.sample_size = Bytes::from_kib(128);
  dl.samples_per_file = scale.tiny ? 128 : 1024;
  dl.batch_size = scale.tiny ? 8 : 32;
  dl.epochs = 2;
  dl.shuffle = true;
  dl.seed = seed;
  return dl;
}

/// Shared 2Q client cache with epoch prefetch, sized to about half the
/// dataset so the hit, miss and prefetch paths all run.
cache::CacheConfig dl_cache(Scale scale) {
  const workload::DlioConfig dl = dl_config(0, scale);
  cache::CacheConfig cache;
  cache.enabled = true;
  cache.policy = cache::EvictionPolicy::kTwoQ;
  cache.prefetch = cache::PrefetchMode::kEpoch;
  cache.scope = cache::CacheScope::kShared;
  const std::uint64_t dataset_pages =
      dl.samples * dl.sample_size.count() / cache.page_size.count();
  cache.capacity_pages = dataset_pages / 2;
  return cache;
}

std::unique_ptr<workload::VectorWorkload> dl_generate(std::uint64_t seed, Scale scale) {
  return std::make_unique<workload::VectorWorkload>(
      "dl_epochs_cached", workload::materialize(*workload::dlio_like(dl_config(seed, scale))));
}

OpShape dl_shape(Scale scale) {
  const workload::DlioConfig dl = dl_config(0, scale);
  OpShape shape;
  shape.flows = static_cast<std::uint32_t>(dl.ranks);
  shape.transfer = dl.sample_size;
  shape.system = ssd_testbed();
  shape.cache = dl_cache(scale);
  svc::WorkloadSpec point;
  point.kind = svc::WorkloadKind::kDlio;
  point.ranks = static_cast<std::uint32_t>(dl.ranks);
  point.samples = 256;
  point.sample_kib = 128;
  point.samples_per_file = 64;
  point.batch = 8;
  shape.point_spec.testbed = {16, 4, 8, 1};
  shape.point_spec.model = {16, 4, 8, 1};
  shape.point_spec.workloads = {point};
  return shape;
}

}  // namespace

// ---------------------------------------------------------------- observed run

SimOutcome run_simulation(const workload::Workload& workload, const pfs::PfsConfig& system,
                          const driver::SimRunConfig& config, std::uint64_t seed, Spans& spans) {
  SimOutcome out;
  sim::Engine engine{seed};
  pfs::PfsModel model{engine, system};
  if (spans.enabled()) {
    model.set_ost_observer([&out, &spans](const pfs::OstOpRecord& record) {
      spans.count("pfs.ost_record");
      out.ost_residence_us.push_back((record.completed - record.enqueued).us());
      out.ost_depth.push_back(static_cast<double>(record.queue_depth_at_enqueue));
    });
    model.set_mds_observer([&spans](const pfs::MdsOpRecord&) { spans.count("pfs.mds_record"); });
  }
  driver::ExecutionDrivenSimulator simulator{engine, model, config};
  if (spans.enabled()) {
    simulator.set_cache_observer(
        [&spans](const cache::CacheRecord&) { spans.count("cache.record"); });
  }
  ObservedWorkload::Probe probe;
  probe.engine = &engine;
  probe.spans = &spans;
  const ObservedWorkload observed{workload, probe};

  const std::int64_t start = now_ns();
  probe.window_start = start;
  try {
    const auto span = spans.scope("driver.run");
    out.result = simulator.run(observed);
    engine.run();  // background drains, so server-side stats are complete
  } catch (const std::exception& e) {
    out.failures.push_back(std::string{"simulation threw: "} + e.what());
  }
  out.wall_s = seconds_since(start);
  try {
    engine.assert_drained();
    model.assert_quiescent();
  } catch (const std::exception& e) {
    out.failures.push_back(std::string{"quiescence audit: "} + e.what());
  }

  out.events = engine.events_executed();
  out.pending_peak = probe.pending_peak;
  out.op_ms = std::move(probe.op_ms);
  out.compute_msgs = model.compute_fabric().stats().messages;
  out.storage_msgs = model.storage_fabric().stats().messages;
  out.storage_bytes = model.storage_fabric().stats().bytes;
  for (std::uint32_t i = 0; i < model.ost_count(); ++i) {
    const pfs::OstStats& stats = model.ost(i).stats();
    out.ost_ops += stats.read_ops + stats.write_ops;
  }
  out.mds_ops = model.mds().stats().ops_total;
  out.mds_busy_s = model.mds().stats().busy_time.sec();
  out.digest = digest_of(out.result);
  return out;
}

std::uint64_t digest_of(const driver::SimRunResult& r) {
  Fnv64 h;
  for (const std::uint64_t v :
       {static_cast<std::uint64_t>(r.makespan.ns()), r.ops, r.data_ops, r.meta_ops, r.failed_ops,
        r.retries, r.timeouts, r.giveups, r.failovers, r.degraded_reads, r.data_lost_ops,
        r.rebuilds_completed, r.rebuilt_bytes.count(), r.stale_map_retries, r.map_refreshes,
        r.down_detections, r.migration_marked_bytes.count(), r.overload_rejections,
        r.budget_denied, r.breaker_opens, r.breaker_fast_fails, r.deadline_giveups,
        r.server_overload_rejected, r.server_shed, r.cache_hits, r.cache_misses,
        r.cache_evictions, r.cache_prefetch_issued, r.cache_prefetch_used,
        r.cache_prefetch_wasted, r.cache_writebacks, r.cache_writeback_failures,
        r.cache_absorbed_writes, r.cache_hit_bytes.count(), r.cache_miss_bytes.count(),
        r.cache_writeback_bytes.count(), r.bytes_read.count(), r.bytes_written.count(),
        static_cast<std::uint64_t>(r.read_time.ns()), static_cast<std::uint64_t>(r.write_time.ns()),
        static_cast<std::uint64_t>(r.meta_time.ns())}) {
    h.mix(v);
  }
  for (const SimTime t : r.rank_finish) h.mix(static_cast<std::uint64_t>(t.ns()));
  return h.digest();
}

std::vector<std::pair<std::string, std::uint64_t>> exact_counts(const SimOutcome& o) {
  return {{"sim.ops", o.result.ops},
          {"sim.events", o.events},
          {"net.compute_msgs", o.compute_msgs},
          {"net.storage_msgs", o.storage_msgs},
          {"pfs.ost_ops", o.ost_ops},
          {"sim.digest", o.digest}};
}

void sim_layer_metrics(Report& report, const SimOutcome& o, double gen_s) {
  const std::uint64_t ops = o.result.ops;
  report.metric("sim.events", static_cast<double>(o.events), "count");
  report.metric("sim.events_per_op", per(static_cast<double>(o.events), ops), "ratio");
  report.metric("sim.ns_per_event", per(o.wall_s * 1e9, o.events), "ns");
  report.metric("sim.pending_peak", static_cast<double>(o.pending_peak), "count");
  report.metric("net.compute_msgs", static_cast<double>(o.compute_msgs), "count");
  report.metric("net.storage_msgs", static_cast<double>(o.storage_msgs), "count");
  report.metric("net.msgs_per_op", per(static_cast<double>(o.compute_msgs + o.storage_msgs), ops),
                "ratio");
  report.metric("net.storage_mib", o.storage_bytes.mib(), "MiB");
  report.metric("pfs.ost_ops", static_cast<double>(o.ost_ops), "count");
  report.metric("pfs.mds_ops", static_cast<double>(o.mds_ops), "count");
  report.metric("pfs.retries", static_cast<double>(o.result.retries), "count");
  report.metric("pfs.ost_residence_p50_us", quantile(o.ost_residence_us, 0.5), "us");
  report.metric("pfs.ost_residence_p99_us", quantile(o.ost_residence_us, 0.99), "us");
  report.metric("pfs.ost_depth_p99", quantile(o.ost_depth, 0.99), "count");
  report.metric("pfs.mds_busy_s", o.mds_busy_s, "s");
  report.metric("driver.run_s", o.wall_s, "s");
  report.metric("driver.ns_per_op", per(o.wall_s * 1e9, ops), "ns");
  report.metric("workload.gen_s", gen_s, "s");
  const driver::SimRunResult& r = o.result;
  report.metric("cache.hit_rate", r.cache_hit_rate(), "ratio");
  report.metric("cache.prefetch_used_ratio",
                per(static_cast<double>(r.cache_prefetch_used), r.cache_prefetch_issued), "ratio");
  report.metric("cache.evictions", static_cast<double>(r.cache_evictions), "count");
  report.metric("cache.writebacks", static_cast<double>(r.cache_writebacks), "count");
}

std::unique_ptr<Workload> make_ckpt_storm(std::uint64_t seed, Scale scale) {
  driver::SimRunConfig config;
  config.layout = eight_wide();
  return std::make_unique<SimBench>(seed, scale, ckpt_generate, ssd_testbed(), config,
                                    ckpt_shape);
}

std::unique_ptr<Workload> make_dl_epochs_cached(std::uint64_t seed, Scale scale) {
  driver::SimRunConfig config;
  config.cache = dl_cache(scale);
  return std::make_unique<SimBench>(seed, scale, dl_generate, ssd_testbed(), config, dl_shape);
}

}  // namespace perfbench
