// Determinism regression tests: the engine's contract (src/sim/engine.hpp)
// is that two runs with equal inputs produce byte-identical outputs. These
// tests hash the full ordered event/trace stream of same-seed campaigns with
// FNV-1a and require identical digests — the property every replay-fidelity
// and extrapolation result in the paper rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "driver/sim_driver.hpp"
#include "eval/campaign.hpp"
#include "fault/injector.hpp"
#include "pfs/pfs.hpp"
#include "sim/engine.hpp"
#include "trace/tracer.hpp"
#include "workload/dlio.hpp"
#include "workload/kernels.hpp"
#include "workload/op.hpp"

namespace pio {
namespace {

// -------------------------------------------------------------- FNV-1a 64
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffULL;
      hash_ *= kFnvPrime;
    }
  }
  void mix(const std::string& s) {
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= kFnvPrime;
    }
    mix(s.size());
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

std::uint64_t hash_trace(const trace::Trace& trace) {
  Fnv1a h;
  for (const auto& e : trace.events()) {
    h.mix(static_cast<std::uint64_t>(e.layer));
    h.mix(static_cast<std::uint64_t>(e.op));
    h.mix(static_cast<std::uint64_t>(e.rank));
    h.mix(e.path);
    h.mix(e.offset);
    h.mix(e.size);
    h.mix(static_cast<std::uint64_t>(e.start.ns()));
    h.mix(static_cast<std::uint64_t>(e.end.ns()));
    h.mix(e.ok ? 1u : 0u);
  }
  return h.digest();
}

pfs::PfsConfig small_pfs() {
  pfs::PfsConfig config;
  config.clients = 8;
  config.io_nodes = 2;
  config.osts = 4;
  config.disk_kind = pfs::DiskKind::kSsd;
  return config;
}

/// One full simulated campaign: a shuffled DLIO epoch (exercises Rng-driven
/// sample order) traced end to end. Returns the trace digest.
std::uint64_t run_campaign(std::uint64_t engine_seed, std::uint64_t workload_seed) {
  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::DlioConfig config;
  config.ranks = 4;
  config.samples = 512;
  config.samples_per_file = 128;
  config.batch_size = 16;
  config.shuffle = true;
  config.seed = workload_seed;
  trace::Tracer tracer;
  const auto result = sim.run(*workload::dlio_like(config), &tracer);
  engine.assert_drained();
  Fnv1a h;
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(result.ops);
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedCampaignsHashIdentical) {
  const std::uint64_t first = run_campaign(7, 42);
  const std::uint64_t second = run_campaign(7, 42);
  EXPECT_EQ(first, second) << "same-seed campaign diverged: determinism contract broken";
}

TEST(DeterminismRegression, DifferentSeedsDiverge) {
  // Not a hard guarantee (hashes can collide) but with a shuffled workload a
  // seed change that *doesn't* move the trace means dead Rng plumbing.
  EXPECT_NE(run_campaign(7, 42), run_campaign(7, 43));
}

TEST(DeterminismRegression, EngineEventOrderIsReproducible) {
  auto run_engine = [](std::uint64_t seed) {
    sim::Engine engine{seed};
    Rng jitter = engine.rng_stream(1);
    Fnv1a h;
    // A self-rescheduling cascade with random delays plus same-time events:
    // ties must fire in insertion order, draws must replay exactly.
    for (int i = 0; i < 8; ++i) {
      // piolint: allow(C2) — engine is drained by run() in this same scope.
      engine.schedule_at(SimTime::from_ns(100), [&h, i] { h.mix(static_cast<std::uint64_t>(i)); });
    }
    std::function<void()> cascade = [&] {
      h.mix(static_cast<std::uint64_t>(engine.now().ns()));
      if (engine.events_executed() < 500) {
        engine.schedule_after(SimTime::from_ns(jitter.uniform_int(0, 1000)), cascade);
      }
    };
    engine.schedule_after(SimTime::zero(), cascade);
    engine.run();
    engine.assert_drained();
    h.mix(engine.events_executed());
    return h.digest();
  };
  EXPECT_EQ(run_engine(99), run_engine(99));
}

/// A faulted, resilient campaign: scripted OST outage + straggler on top of
/// an injector-generated schedule, retries with jittered backoff, timeouts
/// and failover all active. Every one of those draws from engine-owned Rng
/// streams, so the digest must replay exactly for equal seeds.
std::uint64_t run_fault_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_straggler(2, SimTime::from_ms(1.0), SimTime::from_ms(30.0), 5.0);
  // Rates are high enough that several stochastic events land inside the
  // run's ~tens-of-ms window — a seed change must visibly move the trace.
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 60.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  injector.ost_straggler_rate_hz = 60.0;
  injector.ost_straggler_mean = SimTime::from_ms(10.0);
  injector.storage_brownout_rate_hz = 30.0;
  injector.storage_brownout_mean = SimTime::from_ms(5.0);
  injector.mds_slowdown_rate_hz = 30.0;
  injector.mds_slowdown_mean = SimTime::from_ms(5.0);
  config.fault_injector = injector;
  config.retry.max_attempts = 3;
  config.retry.op_timeout = SimTime::from_ms(40.0);
  config.retry.failover = true;

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.assert_drained();
  model.assert_quiescent();
  Fnv1a h;
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(result.failed_ops);
  h.mix(result.retries);
  h.mix(result.timeouts);
  h.mix(result.giveups);
  h.mix(result.failovers);
  h.mix(engine.events_executed());
  return h.digest();
}

/// An overload campaign: the fault weather of run_fault_campaign with the
/// whole overload-control stack armed — CoDel shedding on bounded queues,
/// token-bucket retry budget, per-OST breakers whose open-window jitter
/// draws from kBreakerRngStream, adaptive timeouts, end-to-end deadlines.
/// The digest folds in every overload counter and the server-side
/// rejected/shed totals, so a breaker or shed decision drawing outside the
/// engine's streams diverges immediately on a same-seed pair.
std::uint64_t run_overload_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  fault::InjectorConfig injector;
  injector.horizon = SimTime::from_ms(100.0);
  injector.ost_crash_rate_hz = 60.0;
  injector.ost_outage_mean = SimTime::from_ms(4.0);
  injector.ost_straggler_rate_hz = 60.0;
  injector.ost_straggler_mean = SimTime::from_ms(10.0);
  config.fault_injector = injector;
  config.admission.policy = pfs::AdmissionPolicy::kCodelShed;
  config.admission.shed_target = SimTime::from_ms(2.0);
  config.retry.max_attempts = 4;
  config.retry.adaptive_timeout = true;
  config.retry.initial_timeout = SimTime::from_ms(20.0);
  config.retry.op_deadline = SimTime::from_ms(120.0);
  config.retry.retry_budget = true;
  config.retry.budget_ratio = 0.5;
  config.retry.breaker = true;
  config.retry.breaker_threshold = 3;
  config.retry.breaker_open_base = SimTime::from_ms(10.0);

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  driver::ExecutionDrivenSimulator sim{engine, model};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.assert_drained();
  model.assert_quiescent();
  const auto& res = model.resilience_stats();
  const auto server = model.server_overload_totals();
  Fnv1a h;
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(result.failed_ops);
  h.mix(result.retries);
  h.mix(res.overload_rejections);
  h.mix(res.budget_spent);
  h.mix(res.budget_denied);
  h.mix(res.breaker_opens);
  h.mix(res.breaker_probes);
  h.mix(res.breaker_fast_fails);
  h.mix(res.deadline_giveups);
  h.mix(server.rejected);
  h.mix(server.shed);
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedOverloadCampaignsHashIdentical) {
  const std::uint64_t first = run_overload_campaign(31);
  const std::uint64_t second = run_overload_campaign(31);
  EXPECT_EQ(first, second) << "same-seed overload campaign diverged: a shed, "
                              "budget or breaker decision draws outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedOverloadCampaignsDiverge) {
  EXPECT_NE(run_overload_campaign(31), run_overload_campaign(32));
}

/// A durability campaign: replicated layout, tracked contents, OST crashes
/// that force degraded reads, and an online rebuild whose pacing jitter
/// draws from the kRebuildRngStream engine substream. The digest covers the
/// trace, the durability counters, and the rebuilt byte total, so a resync
/// planner drawing from wall-clock state (piolint D1) shows up immediately.
std::uint64_t run_durability_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.mds.default_layout.replicas = 2;
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0))
      .ost_down(0, SimTime::from_ms(20.0), SimTime::from_ms(26.0));
  config.retry.max_attempts = 2;
  config.retry.failover = true;

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  // Resilience/durability events carry the jitter-paced rebuild timestamps,
  // so the digest is sensitive to the resync planner even when the rebuild
  // never contends with foreground traffic.
  Fnv1a h;
  model.set_resilience_observer([&h](const pfs::ResilienceRecord& r) {
    h.mix(static_cast<std::uint64_t>(r.kind));
    h.mix(static_cast<std::uint64_t>(r.at.ns()));
    h.mix(static_cast<std::uint64_t>(r.ost));
    h.mix(r.bytes.count());
  });
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.run();  // drain constructor-scheduled rebuild passes past the workload
  engine.assert_drained();
  model.assert_quiescent();
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(model.resilience_stats().degraded_reads);
  h.mix(model.resilience_stats().rebuilds_completed);
  h.mix(model.resilience_stats().rebuilt_bytes.count());
  h.mix(model.resilience_stats().data_lost_ops);
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedDurabilityCampaignsHashIdentical) {
  const std::uint64_t first = run_durability_campaign(21);
  const std::uint64_t second = run_durability_campaign(21);
  EXPECT_EQ(first, second) << "same-seed durability campaign diverged: rebuild "
                              "pacing is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedDurabilityCampaignsDiverge) {
  EXPECT_NE(run_durability_campaign(21), run_durability_campaign(22));
}

/// A membership-churn campaign: epoch-versioned cluster map with rendezvous
/// placement, a scripted drain, and an OST crash detected through jittered
/// heartbeats (kHeartbeatRngStream) whose migration resync paces on
/// kDrainRngStream. The digest covers the trace, every membership counter,
/// and the final epoch, so a detector or migration planner drawing outside
/// engine streams diverges immediately (extends the C-12 oracle).
std::uint64_t run_membership_campaign(std::uint64_t engine_seed) {
  auto config = small_pfs();
  config.durability.track_contents = true;
  config.durability.rebuild_bandwidth = Bandwidth::from_mib_per_sec(128.0);
  config.mds.default_layout.replicas = 2;
  config.cluster.enabled = true;
  config.cluster.placement = pfs::PlacementMode::kRendezvousHash;
  config.cluster.heartbeat_interval = SimTime::from_ms(2.0);
  config.cluster.heartbeat_grace = 2;
  config.cluster.horizon = SimTime::from_ms(80.0);
  config.cluster.drain(3, SimTime::from_ms(10.0));
  config.faults.ost_down(1, SimTime::from_ms(2.0), SimTime::from_ms(12.0));
  config.retry.max_attempts = 4;
  config.retry.base_backoff = SimTime::from_ms(1.0);

  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, config};
  // Detection, stale-map and migration events carry heartbeat-jittered
  // timestamps; mixing them makes the digest sensitive to the whole
  // membership machinery, not just the foreground traffic.
  Fnv1a h;
  model.set_resilience_observer([&h](const pfs::ResilienceRecord& r) {
    h.mix(static_cast<std::uint64_t>(r.kind));
    h.mix(static_cast<std::uint64_t>(r.at.ns()));
    h.mix(static_cast<std::uint64_t>(r.ost));
    h.mix(r.bytes.count());
  });
  driver::SimRunConfig run_config;
  run_config.layout.replicas = 2;  // the driver's create layout wins over the MDS default
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::IorConfig ior;
  ior.ranks = 4;
  ior.block_size = Bytes::from_mib(4);
  ior.transfer_size = Bytes::from_mib(1);
  trace::Tracer tracer;
  const auto result = sim.run(*workload::ior_like(ior), &tracer);
  engine.run();  // drain migration resync passes past the workload
  engine.assert_drained();
  model.assert_quiescent();
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(model.resilience_stats().stale_map_retries);
  h.mix(model.resilience_stats().map_refreshes);
  h.mix(model.resilience_stats().down_detections);
  h.mix(model.resilience_stats().up_detections);
  h.mix(model.resilience_stats().migration_marked_bytes.count());
  h.mix(model.cluster_map().epoch());
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedMembershipCampaignsHashIdentical) {
  const std::uint64_t first = run_membership_campaign(41);
  const std::uint64_t second = run_membership_campaign(41);
  EXPECT_EQ(first, second) << "same-seed membership campaign diverged: heartbeat or "
                              "migration pacing is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedMembershipCampaignsDiverge) {
  EXPECT_NE(run_membership_campaign(41), run_membership_campaign(42));
}

/// A cached campaign: shuffled DLIO epochs behind the client cache tier
/// (write-back, 2Q replacement, epoch-aware warming on kWarmRngStream). The
/// digest covers the trace — kCache annotations included — plus every cache
/// counter, so a nondeterministic eviction clock or warm order (piolint D1)
/// moves it immediately.
std::uint64_t run_cached_campaign(std::uint64_t engine_seed, std::uint64_t workload_seed) {
  sim::Engine engine{engine_seed};
  pfs::PfsModel model{engine, small_pfs()};
  driver::SimRunConfig run_config;
  run_config.cache.enabled = true;
  run_config.cache.scope = cache::CacheScope::kShared;
  run_config.cache.policy = cache::EvictionPolicy::kTwoQ;
  run_config.cache.prefetch = cache::PrefetchMode::kEpoch;
  run_config.cache.capacity_pages = 96;  // below the dataset: evictions + warming
  run_config.cache.max_dirty_pages = 32;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  workload::DlioConfig config;
  config.ranks = 4;
  config.samples = 128;
  config.sample_size = Bytes::from_kib(64);
  config.samples_per_file = 32;
  config.batch_size = 8;
  config.epochs = 2;
  config.shuffle = true;
  config.seed = workload_seed;
  config.compute_per_batch = SimTime::zero();
  trace::Tracer tracer;
  const auto result = sim.run(*workload::dlio_like(config), &tracer);
  engine.assert_drained();
  Fnv1a h;
  h.mix(hash_trace(tracer.snapshot()));
  h.mix(static_cast<std::uint64_t>(result.makespan.ns()));
  h.mix(result.cache_hits);
  h.mix(result.cache_misses);
  h.mix(result.cache_evictions);
  h.mix(result.cache_prefetch_issued);
  h.mix(result.cache_prefetch_used);
  h.mix(result.cache_prefetch_wasted);
  h.mix(result.cache_writebacks);
  h.mix(result.cache_absorbed_writes);
  h.mix(result.cache_hit_bytes.count());
  h.mix(result.cache_miss_bytes.count());
  h.mix(result.cache_writeback_bytes.count());
  h.mix(engine.events_executed());
  return h.digest();
}

TEST(DeterminismRegression, SameSeedCachedCampaignsHashIdentical) {
  const std::uint64_t first = run_cached_campaign(31, 42);
  const std::uint64_t second = run_cached_campaign(31, 42);
  EXPECT_EQ(first, second) << "same-seed cached campaign diverged: cache "
                              "recency or warm order is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedCachedCampaignsDiverge) {
  EXPECT_NE(run_cached_campaign(31, 42), run_cached_campaign(31, 43));
}

// ------------------------------------------------- write-back timing goldens
//
// Pinned digests of every SimRunResult field (per-rank finish times
// included) plus the POSIX trace, for runs whose flushes wait on write-backs
// already in flight. Engine event counts are deliberately left out: they
// measure the simulator's bookkeeping, not the model. The values were taken
// from the polling tier (a waiter re-checked its page every
// writeback_retry); the parked-waiter tier must reproduce them bit for bit.

std::uint64_t hash_result(const driver::SimRunResult& r) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(r.makespan.ns()));
  for (const std::uint64_t v :
       {r.ops, r.data_ops, r.meta_ops, r.failed_ops, r.retries, r.timeouts, r.giveups,
        r.failovers, r.degraded_reads, r.data_lost_ops, r.rebuilds_completed,
        r.rebuilt_bytes.count(), r.stale_map_retries, r.map_refreshes, r.down_detections,
        r.migration_marked_bytes.count(), r.overload_rejections, r.budget_denied,
        r.breaker_opens, r.breaker_fast_fails, r.deadline_giveups, r.server_overload_rejected,
        r.server_shed, r.cache_hits, r.cache_misses, r.cache_evictions,
        r.cache_prefetch_issued, r.cache_prefetch_used, r.cache_prefetch_wasted,
        r.cache_writebacks, r.cache_writeback_failures, r.cache_absorbed_writes,
        r.cache_hit_bytes.count(), r.cache_miss_bytes.count(), r.cache_writeback_bytes.count(),
        r.bytes_read.count(), r.bytes_written.count()}) {
    h.mix(v);
  }
  h.mix(static_cast<std::uint64_t>(r.read_time.ns()));
  h.mix(static_cast<std::uint64_t>(r.write_time.ns()));
  h.mix(static_cast<std::uint64_t>(r.meta_time.ns()));
  for (const SimTime t : r.rank_finish) h.mix(static_cast<std::uint64_t>(t.ns()));
  return h.digest();
}

/// Runs `workload` on a one-OST testbed with `faults` behind a shared
/// write-back cache and digests the result and the trace.
std::uint64_t run_writeback_scenario(const workload::Workload& workload,
                                     cache::CacheConfig cache_config,
                                     const fault::FaultPlan& faults = {}) {
  sim::Engine engine{5};
  pfs::PfsConfig pfs_config;
  pfs_config.clients = 4;
  pfs_config.io_nodes = 1;
  pfs_config.osts = 1;
  pfs_config.disk_kind = pfs::DiskKind::kHdd;
  pfs_config.mds.default_layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  pfs_config.faults = faults;
  pfs::PfsModel model{engine, pfs_config};
  driver::SimRunConfig run_config;
  run_config.layout = pfs::StripeLayout{Bytes::from_mib(1), 1, 0};
  cache_config.enabled = true;
  cache_config.scope = cache::CacheScope::kShared;
  run_config.cache = cache_config;
  driver::ExecutionDrivenSimulator sim{engine, model, run_config};
  trace::Tracer tracer;
  const auto result = sim.run(workload, &tracer);
  engine.assert_drained();
  model.assert_quiescent();
  EXPECT_EQ(result.failed_ops, 0u);
  Fnv1a h;
  h.mix(hash_result(result));
  h.mix(hash_trace(tracer.snapshot()));
  return h.digest();
}

cache::CacheConfig small_dirty_bound() {
  cache::CacheConfig config;
  config.capacity_pages = 16;
  config.max_dirty_pages = 1;  // every second dirty page starts a write-back
  return config;
}

using workload::Op;
constexpr std::uint64_t kPage = 64 * 1024;

Op write_page(const std::string& path, std::uint64_t page) {
  return Op::write(path, page * kPage, Bytes::from_kib(64));
}

TEST(WritebackTimingGolden, CachedDlioCampaign) {
  const auto digest = [](std::uint64_t workload_seed) {
    sim::Engine engine{31};
    pfs::PfsModel model{engine, small_pfs()};
    driver::SimRunConfig run_config;
    run_config.cache.enabled = true;
    run_config.cache.scope = cache::CacheScope::kShared;
    run_config.cache.policy = cache::EvictionPolicy::kTwoQ;
    run_config.cache.prefetch = cache::PrefetchMode::kEpoch;
    run_config.cache.capacity_pages = 96;
    run_config.cache.max_dirty_pages = 32;
    driver::ExecutionDrivenSimulator sim{engine, model, run_config};
    workload::DlioConfig config;
    config.ranks = 4;
    config.samples = 128;
    config.sample_size = Bytes::from_kib(64);
    config.samples_per_file = 32;
    config.batch_size = 8;
    config.epochs = 2;
    config.shuffle = true;
    config.seed = workload_seed;
    config.compute_per_batch = SimTime::zero();
    trace::Tracer tracer;
    const auto result = sim.run(*workload::dlio_like(config), &tracer);
    engine.assert_drained();
    Fnv1a h;
    h.mix(hash_result(result));
    h.mix(hash_trace(tracer.snapshot()));
    return h.digest();
  };
  EXPECT_EQ(digest(42), 0xabe18e55e51b1f8ULL);
  EXPECT_EQ(digest(43), 0x294f086fc354db5bULL);
}

TEST(WritebackTimingGolden, OstOutageDuringWriteback) {
  // Rank 0's writes start background write-backs into a down OST; its fsync
  // and rank 1's later fsync of the same file wait on attempts in flight,
  // across several failed attempts, until the OST returns at 40 ms.
  std::vector<std::vector<Op>> ops(2);
  ops[0].push_back(Op::create("/ckpt"));
  for (std::uint64_t p = 0; p < 6; ++p) ops[0].push_back(write_page("/ckpt", p));
  ops[0].push_back(Op::fsync("/ckpt"));
  ops[0].push_back(Op::close("/ckpt"));
  ops[1].push_back(Op::compute(SimTime::from_ms(2)));
  ops[1].push_back(Op::open("/ckpt"));
  ops[1].push_back(Op::fsync("/ckpt"));
  ops[1].push_back(Op::close("/ckpt"));
  const workload::VectorWorkload workload{"outage", std::move(ops)};
  fault::FaultPlan faults;
  faults.ost_down(0, SimTime::zero(), SimTime::from_ms(40));
  EXPECT_EQ(run_writeback_scenario(workload, small_dirty_bound(), faults), 0xb50f54674e16306aULL);
}

TEST(WritebackTimingGolden, RewriteDuringWritebackFlight) {
  // Page 0's write-back is in flight when rank 0 writes it again: the landed
  // bytes are stale (version mismatch), so the page stays dirty and goes
  // around again while rank 1's fsync waits on it.
  std::vector<std::vector<Op>> ops(2);
  ops[0].push_back(Op::create("/data"));
  for (std::uint64_t p = 0; p < 3; ++p) ops[0].push_back(write_page("/data", p));
  ops[0].push_back(write_page("/data", 0));
  ops[0].push_back(write_page("/data", 1));
  ops[0].push_back(Op::fsync("/data"));
  ops[0].push_back(Op::close("/data"));
  ops[1].push_back(Op::compute(SimTime::from_ms(1)));
  ops[1].push_back(Op::open("/data"));
  ops[1].push_back(Op::fsync("/data"));
  ops[1].push_back(Op::close("/data"));
  const workload::VectorWorkload workload{"rewrite", std::move(ops)};
  EXPECT_EQ(run_writeback_scenario(workload, small_dirty_bound()), 0x8cd0801cd4200bb1ULL);
}

TEST(WritebackTimingGolden, UnlinkWhileFlushWaits) {
  // Rank 0's fsync owns every write-back, slowed by a straggling OST; rank
  // 1's fsync of the same file waits on all of them; rank 2 unlinks the
  // file mid-wait, which drops the pages and releases rank 1's flush long
  // before the write-backs land.
  std::vector<std::vector<Op>> ops(3);
  ops[0].push_back(Op::create("/tmpfile"));
  for (std::uint64_t p = 0; p < 4; ++p) ops[0].push_back(write_page("/tmpfile", p));
  ops[0].push_back(Op::fsync("/tmpfile"));
  ops[1].push_back(Op::compute(SimTime::from_ms(1)));
  ops[1].push_back(Op::open("/tmpfile"));
  ops[1].push_back(Op::fsync("/tmpfile"));
  ops[1].push_back(Op::close("/tmpfile"));
  ops[2].push_back(Op::compute(SimTime::from_ms(12)));
  ops[2].push_back(Op::unlink("/tmpfile"));
  const workload::VectorWorkload workload{"unlink", std::move(ops)};
  fault::FaultPlan faults;
  faults.ost_straggler(0, SimTime::zero(), SimTime::from_ms(100), 50.0);
  EXPECT_EQ(run_writeback_scenario(workload, small_dirty_bound(), faults), 0xfd6deb03d2b68c68ULL);
}

TEST(DeterminismRegression, SameSeedFaultCampaignsHashIdentical) {
  const std::uint64_t first = run_fault_campaign(13);
  const std::uint64_t second = run_fault_campaign(13);
  EXPECT_EQ(first, second) << "same-seed fault campaign diverged: injector or "
                              "retry jitter is drawing outside engine streams";
}

TEST(DeterminismRegression, DifferentSeedFaultCampaignsDiverge) {
  EXPECT_NE(run_fault_campaign(13), run_fault_campaign(14));
}

TEST(DeterminismRegression, FullEvaluationLoopIsReproducible) {
  auto run_loop = [] {
    eval::CampaignConfig config;
    config.testbed = small_pfs();
    config.model = small_pfs();
    config.model.disk_kind = pfs::DiskKind::kHdd;  // deliberately mis-calibrated model
    config.iterations = 2;
    config.seed = 11;
    workload::IorConfig ior;
    ior.ranks = 4;
    ior.block_size = Bytes::from_mib(2);
    ior.transfer_size = Bytes::from_mib(1);
    const auto workload = workload::ior_like(ior);
    eval::Campaign campaign{config};
    const auto result = campaign.run({workload.get()});
    Fnv1a h;
    for (const auto& iter : result.iterations) {
      for (const auto& point : iter.points) {
        h.mix(point.workload);
        h.mix(static_cast<std::uint64_t>(point.measured.ns()));
        h.mix(static_cast<std::uint64_t>(point.simulated_raw.ns()));
        h.mix(static_cast<std::uint64_t>(point.predicted.ns()));
      }
    }
    return h.digest();
  };
  EXPECT_EQ(run_loop(), run_loop());
}

}  // namespace
}  // namespace pio
