// The per-layer ladder: each rung drives one layer alone through its public
// calls, fed with the workload's own op shape. A rung stands in for a layer
// that is off the workload's own path, so every per-layer metric is measured
// on every workload; subtracting the rung below gives a layer's self cost.
#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/page_cache.hpp"
#include "common/rng.hpp"
#include "eval/campaign.hpp"
#include "harness.hpp"
#include "ladder.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim_run.hpp"
#include "svc/evald.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"

namespace perfbench {

using namespace pio;

namespace {

constexpr std::uint64_t kCacheStream = 0xBE7C0300;

bool owns(const std::vector<std::string>& layers, const std::string& layer) {
  return std::find(layers.begin(), layers.end(), layer) != layers.end();
}

/// net alone: `total` messages of `size` bytes across the compute fabric,
/// `flows` kept in flight (closed loop), between the shape's clients and
/// I/O nodes. Returns host ns per message.
double net_ns_per_msg(const OpShape& shape, std::uint32_t flows, std::uint64_t total,
                      Spans& spans) {
  sim::Engine engine{1};
  const std::uint32_t clients = std::max<std::uint32_t>(1, shape.system.clients);
  const std::uint32_t ions = std::max<std::uint32_t>(1, shape.system.io_nodes);
  net::Fabric fabric{engine, shape.system.compute_fabric, clients + ions};
  std::uint64_t issued = 0;
  std::function<void()> send_next = [&]() {
    if (issued == total) return;
    const std::uint64_t i = issued++;
    fabric.send(static_cast<net::EndpointId>(i % clients),
                static_cast<net::EndpointId>(clients + i % ions), shape.transfer, send_next);
  };
  const auto span = spans.scope("net.send_storm");
  const std::int64_t start = now_ns();
  for (std::uint32_t f = 0; f < flows; ++f) send_next();
  engine.run();
  return static_cast<double>(now_ns() - start) / static_cast<double>(total);
}

/// pfs alone: PfsModel::io of transfer-sized chunks of one striped file,
/// `flows` in flight, half writes then half reads. Host ns per op.
double pfs_ns_per_op(const OpShape& shape, std::uint64_t total, Spans& spans, Report& report) {
  sim::Engine engine{1};
  pfs::PfsModel model{engine, shape.system};
  const std::string path = "/ladder/file";
  bool created = false;
  model.meta(0, pfs::MetaOp::kMkdir, "/ladder", [](const pfs::MetaResult&) {});
  engine.run();
  model.meta(0, pfs::MetaOp::kCreate, path,
             [&](const pfs::MetaResult& r) { created = r.ok(); }, shape.layout);
  engine.run();
  report.check(created, "pfs rung: create failed");
  const std::uint64_t span_ops = std::max<std::uint64_t>(1, shape.flows);
  std::uint64_t issued = 0, failed = 0;
  std::function<void()> issue = [&]() {
    if (issued == total) return;
    const std::uint64_t i = issued++;
    const bool write = i < total / 2;
    model.io(static_cast<pfs::ClientId>(i % shape.system.clients), path, shape.layout,
             (i % span_ops) * shape.transfer.count(), shape.transfer, write,
             [&](pfs::IoResult r) {
               if (!r.ok) ++failed;
               issue();
             });
  };
  const auto span = spans.scope("pfs.io_storm");
  const std::int64_t start = now_ns();
  for (std::uint32_t f = 0; f < shape.flows; ++f) issue();
  engine.run();
  const double ns = static_cast<double>(now_ns() - start) / static_cast<double>(total);
  report.check(failed == 0, "pfs rung: io failed");
  try {
    engine.assert_drained();
    model.assert_quiescent();
  } catch (const std::exception& e) {
    report.check(false, std::string{"pfs rung quiescence: "} + e.what());
  }
  return ns;
}

/// cache alone: PageCache lookups (insert on miss) of transfer-sized page
/// runs drawn over a key space twice the capacity. Host ns per lookup.
double cache_ns_per_lookup(const OpShape& shape, std::uint64_t lookups, Spans& spans) {
  cache::CacheConfig config = shape.cache;
  config.enabled = true;
  cache::PageCache cache{config};
  const std::uint64_t run =
      std::max<std::uint64_t>(1, shape.transfer.count() / config.page_size.count());
  const std::uint64_t runs = std::max<std::uint64_t>(1, 2 * config.capacity_pages / run);
  Rng rng{1, kCacheStream};
  std::uint64_t done = 0, hits = 0;
  const auto span = spans.scope("cache.lookup_storm");
  const std::int64_t start = now_ns();
  while (done < lookups) {
    const std::uint64_t first = rng.next_below(runs) * run;
    for (std::uint64_t p = 0; p < run; ++p, ++done) {
      const cache::PageKey key{1, first + p};
      const SimTime now = SimTime::from_ns(static_cast<std::int64_t>(done));
      if (cache.lookup(key, now) != nullptr) {
        ++hits;
      } else {
        (void)cache.insert(key, now);
      }
    }
  }
  const double ns = static_cast<double>(now_ns() - start) / static_cast<double>(done);
  spans.count("cache.rung_hits", hits);
  return ns;
}

/// svc alone: one session submits the shape's one-point campaign twice; the
/// first is computed, the second served from the result cache.
void svc_rung(const OpShape& shape, Spans& spans, Report& report) {
  svc::EvaldConfig config;
  config.threads = static_cast<int>(bench_threads());
  svc::Evald evald{config};
  const svc::SessionId id = evald.open_session();
  std::vector<std::uint8_t> wire;
  svc::append_frame(svc::MsgType::kSubmitCampaign,
                    svc::encode(svc::SubmitCampaign{shape.point_spec}), wire);
  std::int64_t feed_ns = 0, pump_ns = 0, cached_ns = 0;
  std::uint64_t pumps = 0, points = 0;
  for (int round = 0; round < 2; ++round) {
    const std::int64_t round_start = now_ns();
    {
      const auto span = spans.scope("svc.feed");
      evald.feed(id, wire);
    }
    feed_ns += now_ns() - round_start;
    for (bool more = true; more;) {
      const std::int64_t t = now_ns();
      const auto span = spans.scope("svc.pump");
      more = evald.pump();
      pump_ns += now_ns() - t;
      ++pumps;
    }
    std::vector<std::uint8_t> out;
    {
      const auto span = spans.scope("svc.take_output");
      out = evald.take_output(id);
    }
    for (const svc::Frame& frame : svc::split_frames(out)) {
      if (frame.type == svc::MsgType::kPointResult) ++points;
    }
    if (round == 1) cached_ns = now_ns() - round_start;
  }
  const std::uint64_t expected = 2 * shape.point_spec.workloads.size();
  report.check(points == expected, "svc rung: missing PointResult frames");
  try {
    evald.audit_quiescent();
  } catch (const std::exception& e) {
    report.check(false, std::string{"svc rung audit: "} + e.what());
  }
  const svc::ServiceStats& s = evald.stats();
  const double cold_ms = cold_point_ms(shape.point_spec, 3, spans);
  report.metric("svc.feed_us", per(static_cast<double>(feed_ns) / 1e3, 2), "us");
  report.metric("svc.pump_ms", per(static_cast<double>(pump_ns) / 1e6, pumps), "ms");
  report.metric("svc.hit_rate", per(static_cast<double>(s.cache_hits), s.cache_lookups), "ratio");
  report.metric("svc.computed", static_cast<double>(s.points_computed), "count");
  report.metric("svc.cached", static_cast<double>(s.points_cached), "count");
  report.metric("svc.coalesced", static_cast<double>(s.points_coalesced), "count");
  report.metric("svc.rejections", static_cast<double>(s.campaigns_rejected), "count");
  report.metric("svc.overhead_us_per_point",
                static_cast<double>(cached_ns) / 1e3 /
                    static_cast<double>(shape.point_spec.workloads.size()),
                "us");
  report.metric("eval.cold_point_ms", cold_ms, "ms");
  report.metric("exec.pump_efficiency",
                pump_efficiency(s.points_computed, cold_ms, static_cast<double>(pump_ns) / 1e6),
                "ratio");
}

/// vfs alone: LocalBackend pwrite then pread of transfer-sized buffers
/// (capped at 8 MiB) until `total` bytes each way. MiB/s over both.
double vfs_mib_per_s(const OpShape& shape, Bytes total, Spans& spans, Report& report) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  const std::size_t size = static_cast<std::size_t>(
      std::clamp<std::uint64_t>(shape.transfer.count(), 4096, 8ull << 20));
  const std::uint64_t calls = std::max<std::uint64_t>(1, total.count() / size);
  const std::uint64_t window = std::max<std::uint64_t>(1, (64ull << 20) / size);  // file span
  std::vector<std::byte> buf(size, std::byte{0x5A});
  std::vector<std::byte> out(size);
  auto fd = backend.open("/vfs_alone", vfs::OpenOptions{vfs::OpenMode::kReadWrite, true, true});
  report.check(fd.ok(), "vfs rung: open failed");
  if (!fd.ok()) return 0.0;
  bool ok = true;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < calls; ++i) {
    const std::uint64_t offset = (i % window) * size;
    const auto span = spans.scope("vfs.pwrite");
    ok = ok && backend.pwrite(fd.value(), buf, offset).ok();
  }
  for (std::uint64_t i = 0; i < calls; ++i) {
    const std::uint64_t offset = (i % window) * size;
    const auto span = spans.scope("vfs.pread");
    ok = ok && backend.pread(fd.value(), out, offset).ok();
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  (void)backend.close(fd.value());
  report.check(ok && out == buf, "vfs rung: read-back differs");
  return 2.0 * static_cast<double>(calls * size) / (1024.0 * 1024.0) / seconds;
}

}  // namespace

double cold_point_ms(const svc::CampaignSpec& spec, int reps, Spans& spans) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    svc::CampaignSpec fresh = spec;
    fresh.seed = spec.seed + 1000 + static_cast<std::uint64_t>(rep);
    const eval::CampaignConfig config = svc::to_campaign_config(fresh);
    const auto workload = svc::make_workload(fresh.workloads.front());
    const auto span = spans.scope("eval.evaluate_point");
    const std::int64_t start = now_ns();
    const eval::CampaignPoint point =
        eval::evaluate_point(config, *workload, fresh.calibration, 0, 0);
    samples.push_back(static_cast<double>(now_ns() - start) / 1e6);
    (void)point;
  }
  return median(samples);
}

double pump_efficiency(std::uint64_t computed, double cold_ms, double pump_ms) {
  if (pump_ms <= 0.0) return 0.0;
  return static_cast<double>(computed) * cold_ms / (pump_ms * bench_threads());
}

void run_ladder(const OpShape& shape, const std::vector<std::string>& own, Spans& spans,
                Report& report, Scale scale) {
  // net: cost per message at the workload's full flow concurrency and at
  // 1/16 of it. A fair-share fabric whose per-event cost grows with active
  // flows shows a ratio above 1.
  const std::uint32_t low = std::max<std::uint32_t>(1, shape.flows / 16);
  const std::uint64_t msgs = std::max<std::uint64_t>(scale.tiny ? 64 : 1024, 4ull * shape.flows);
  const double full_ns = net_ns_per_msg(shape, shape.flows, msgs, spans);
  const double low_ns = net_ns_per_msg(shape, low, msgs, spans);
  report.metric("net.alone_ns_per_msg", full_ns, "ns");
  report.metric("net.alone_cost_ratio", full_ns / low_ns, "ratio");

  const std::uint64_t ios = std::max<std::uint64_t>(scale.tiny ? 64 : 512, 2ull * shape.flows);
  report.metric("pfs.alone_ns_per_op", pfs_ns_per_op(shape, ios, spans, report), "ns");
  report.metric("cache.alone_ns_per_lookup",
                cache_ns_per_lookup(shape, scale.tiny ? 20'000 : 200'000, spans), "ns");

  if (!owns(own, "svc")) svc_rung(shape, spans, report);
  if (!report.has("eval.cold_point_ms")) {
    report.metric("eval.cold_point_ms", cold_point_ms(shape.point_spec, 3, spans), "ms");
  }

  if (!owns(own, "driver") && shape.sim_workload != nullptr) {
    const std::int64_t gen_start = now_ns();
    const workload::VectorWorkload generated{"ladder",
                                             workload::materialize(*shape.sim_workload(shape))};
    const double gen_s = seconds_since(gen_start);
    driver::SimRunConfig config;
    config.layout = shape.layout;
    const SimOutcome outcome = run_simulation(generated, shape.system, config, 1, spans);
    for (const std::string& f : outcome.failures) report.check(false, "driver rung: " + f);
    sim_layer_metrics(report, outcome, gen_s);
  }

  const H5Params h5 = h5_params_for(shape.transfer, scale.tiny ? 2 : shape.h5_calls);
  if (!owns(own, "h5")) h5_rung(h5, 1, spans, report);
  const MioAlone mio = run_mio_alone(h5, 1, spans);
  report.check(mio.read_back_exact, "mio rung: read-back differs");
  report.metric("mio.alone_write_ms", mio.write_ms, "ms");
  report.metric("mio.alone_read_ms", mio.read_ms, "ms");
  report.metric("vfs.alone_mib_per_s",
                vfs_mib_per_s(shape, Bytes::from_mib(scale.tiny ? 16 : 256), spans, report),
                "MiB/s");
}

}  // namespace perfbench
