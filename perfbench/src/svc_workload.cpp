// svc_campaigns: closed loop of logical sessions against one in-process
// pioevald (svc::Evald). Each session submits a campaign, waits for its
// CampaignDone, then submits the next. Every campaign mixes two points that
// repeat from a spec pool warmed during setup (served from the result
// cache) with two fresh points that never repeat (measure → replay →
// simulate on the Evald's pool).
#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "eval/campaign.hpp"
#include "harness.hpp"
#include "ladder.hpp"
#include "svc/evald.hpp"

namespace perfbench {

using namespace pio;

namespace {

constexpr std::uint64_t kPickStream = 0xBE7C0100;
constexpr std::uint32_t kWarmSpecs = 16;
constexpr std::uint32_t kPointsPerCampaign = 4;  // two warm, two fresh

svc::WorkloadSpec small_ior(std::uint64_t tag) {
  svc::WorkloadSpec w;
  w.kind = svc::WorkloadKind::kIor;
  w.ranks = 4;
  w.block_kib = 256;
  w.transfer_kib = 64;
  w.read_phase = true;
  w.workload_seed = tag;  // part of the cache key only
  return w;
}

svc::WorkloadSpec small_dlio(std::uint64_t tag) {
  svc::WorkloadSpec w;
  w.kind = svc::WorkloadKind::kDlio;
  w.ranks = 2;
  w.samples = 32;
  w.sample_kib = 16;
  w.samples_per_file = 8;
  w.batch = 4;
  w.workload_seed = tag;  // drives the sample shuffle
  return w;
}

svc::CampaignSpec base_spec(std::uint64_t seed) {
  svc::CampaignSpec spec;
  spec.seed = seed;
  spec.calibration = 0.9;
  spec.testbed = {4, 2, 4, 1};
  spec.model = {4, 2, 2, 1};
  return spec;
}

/// Warm spec `j`: the two repeated points every session campaign starts
/// with (same index, same workload record ⇒ same cache key).
svc::CampaignSpec warm_spec(std::uint64_t seed, std::uint32_t j) {
  svc::CampaignSpec spec = base_spec(seed);
  spec.workloads = {small_ior(1 + j), small_dlio(1 + j)};
  return spec;
}

class SvcBench final : public Workload {
 public:
  SvcBench(std::uint64_t seed, Scale scale)
      : seed_(seed),
        sessions_(scale.tiny ? 2 : 12),
        campaigns_(scale.tiny ? 1 : 4),
        config_(svc::to_campaign_config(base_spec(seed))) {}

  void setup() override {
    svc::EvaldConfig config;
    config.threads = static_cast<int>(bench_threads());
    evald_ = std::make_unique<svc::Evald>(config);
    blobs_.clear();
    const svc::SessionId warm = evald_->open_session();
    for (std::uint32_t j = 0; j < kWarmSpecs; ++j) {
      std::vector<std::uint8_t> wire;
      svc::append_frame(svc::MsgType::kSubmitCampaign,
                        svc::encode(svc::SubmitCampaign{warm_spec(seed_, j)}), wire);
      evald_->feed(warm, wire);
    }
    evald_->drain();
    for (const svc::Frame& frame : svc::split_frames(evald_->take_output(warm))) {
      svc::PointResult result;
      if (frame.type == svc::MsgType::kPointResult && svc::decode(frame.payload, &result)) {
        blobs_[result.key] = blob_hash(result.blob);
      }
    }
    evald_->finish(warm);
    evald_->close_session(warm);
    ids_.clear();
    for (std::uint32_t s = 0; s < sessions_; ++s) ids_.push_back(evald_->open_session());
    warmed_ = true;
  }

  Iteration run(std::uint64_t index, Spans& spans) override {
    // Every iteration gets its own freshly warmed service (set up outside
    // the timed loop), so its result cache and memory do not grow with the
    // number of iterations a run fits in.
    if (!warmed_) setup();
    warmed_ = false;
    Iteration it;
    const svc::ServiceStats before = evald_->stats();
    Rng pick{seed_, kPickStream + index};
    std::vector<std::int64_t> submitted(sessions_, 0);
    std::vector<std::uint32_t> done(sessions_, 0);
    feed_ns_ = pump_ns_ = 0;
    feeds_ = pumps_ = 0;
    Fnv64 digest;

    auto submit = [&](std::uint32_t s) {
      svc::CampaignSpec spec =
          warm_spec(seed_, static_cast<std::uint32_t>(pick.next_below(kWarmSpecs)));
      const std::uint64_t tag = ((index + 1) << 24) | (std::uint64_t{s} << 12) | (done[s] << 2);
      spec.workloads.push_back(small_dlio(tag));
      spec.workloads.push_back(small_ior(tag | 1));
      std::vector<std::uint8_t> wire;
      svc::append_frame(svc::MsgType::kSubmitCampaign, svc::encode(svc::SubmitCampaign{spec}),
                        wire);
      const std::int64_t start = now_ns();
      {
        const auto span = spans.scope("svc.feed", s + 1);
        evald_->feed(ids_[s], wire);
      }
      submitted[s] = start;
      feed_ns_ += now_ns() - start;
      ++feeds_;
      it.ops += kPointsPerCampaign;  // attempted points
    };

    const std::int64_t start = now_ns();
    std::uint32_t active = sessions_;
    std::uint64_t delivered = 0;
    for (std::uint32_t s = 0; s < sessions_; ++s) submit(s);
    while (active > 0) {
      const std::int64_t pump_start = now_ns();
      bool more = false;
      {
        const auto span = spans.scope("svc.pump");
        more = evald_->pump();
      }
      pump_ns_ += now_ns() - pump_start;
      ++pumps_;
      bool progressed = false;
      for (std::uint32_t s = 0; s < sessions_; ++s) {
        std::vector<std::uint8_t> out;
        {
          const auto span = spans.scope("svc.take_output", s + 1);
          out = evald_->take_output(ids_[s]);
        }
        const std::int64_t arrived = now_ns();
        for (const svc::Frame& frame : svc::split_frames(out)) {
          progressed = true;
          if (frame.type == svc::MsgType::kPointResult) {
            svc::PointResult result;
            if (!svc::decode(frame.payload, &result)) {
              it.failures.push_back("undecodable PointResult");
              continue;
            }
            ++delivered;
            it.latency_ms.push_back(static_cast<double>(arrived - submitted[s]) / 1e6);
            spans.add("request.point", submitted[s], arrived, result.key);
            verify(result, it);
            digest.mix(result.key);
            digest.mix(result.digest);
          } else if (frame.type == svc::MsgType::kCampaignDone) {
            if (++done[s] < campaigns_) {
              submit(s);
            } else {
              --active;
            }
          } else if (frame.type == svc::MsgType::kError) {
            ++it.failed;
            it.failures.push_back("service answered with an Error frame");
            --active;  // this session's campaign will never finish
          }
        }
      }
      if (!more && !progressed) {
        it.failures.push_back("service stalled with sessions still waiting");
        break;
      }
    }
    it.wall_s = seconds_since(start);
    it.failed += it.ops - std::min(it.ops, delivered);
    try {
      evald_->audit_quiescent();
    } catch (const std::exception& e) {
      it.failures.push_back(std::string{"Evald::audit_quiescent: "} + e.what());
    }
    const svc::ServiceStats& after = evald_->stats();
    delta_ = Delta{after.points_computed - before.points_computed,
                   after.points_cached - before.points_cached,
                   after.points_coalesced - before.points_coalesced,
                   after.campaigns_rejected - before.campaigns_rejected,
                   after.cache_hits - before.cache_hits,
                   after.cache_lookups - before.cache_lookups};
    it.digest = digest.digest();
    it.counts = {{"svc.points", delivered},
                 {"svc.computed", delta_.computed},
                 {"svc.cached", delta_.cached},
                 {"svc.coalesced", delta_.coalesced},
                 {"svc.rejections", delta_.rejections}};
    return it;
  }

  [[nodiscard]] bool digest_repeats() const override { return false; }  // fresh keys per index

  void layer_metrics(Report& report, const Iteration& /*traced*/) override {
    Spans off{false};
    report.metric("svc.feed_us", per(static_cast<double>(feed_ns_) / 1e3, feeds_), "us");
    report.metric("svc.pump_ms", per(static_cast<double>(pump_ns_) / 1e6, pumps_), "ms");
    report.metric("svc.hit_rate", per(static_cast<double>(delta_.hits), delta_.lookups), "ratio");
    report.metric("svc.computed", static_cast<double>(delta_.computed), "count");
    report.metric("svc.cached", static_cast<double>(delta_.cached), "count");
    report.metric("svc.coalesced", static_cast<double>(delta_.coalesced), "count");
    report.metric("svc.rejections", static_cast<double>(delta_.rejections), "count");
    report.metric("svc.overhead_us_per_point", cached_overhead_us(), "us");
    const double cold_ms = cold_point_ms(shape().point_spec, 3, off);
    report.metric("eval.cold_point_ms", cold_ms, "ms");
    report.metric("exec.pump_efficiency",
                  pump_efficiency(delta_.computed, cold_ms, static_cast<double>(pump_ns_) / 1e6),
                  "ratio");
  }

  [[nodiscard]] std::vector<std::string> own_layers() const override {
    return {"svc", "exec", "eval"};
  }

  [[nodiscard]] OpShape shape() const override {
    OpShape shape;
    shape.flows = 4;
    shape.transfer = Bytes::from_kib(64);
    shape.system = config_.testbed;
    shape.layout = config_.layout;
    shape.cache.enabled = true;
    shape.point_spec = base_spec(seed_);
    shape.point_spec.workloads = {small_dlio(0xF00D)};
    shape.sim_workload = [](const OpShape& s) {
      return svc::make_workload(s.point_spec.workloads.front());
    };
    return shape;
  }

 private:
  struct Delta {
    std::uint64_t computed = 0, cached = 0, coalesced = 0, rejections = 0, hits = 0, lookups = 0;
  };

  static std::uint64_t blob_hash(const std::vector<std::uint8_t>& blob) {
    Fnv64 h;
    h.mix_bytes(blob.data(), blob.size());
    return h.digest();
  }

  /// Repeated keys must carry byte-identical blobs, and every carried digest
  /// must equal the digest recomputed from the decoded blob.
  void verify(const svc::PointResult& result, Iteration& it) {
    const std::uint64_t h = blob_hash(result.blob);
    const auto [entry, fresh] = blobs_.emplace(result.key, h);
    if (!fresh && entry->second != h) it.failures.push_back("repeated key with different blob");
    eval::CampaignPoint point;
    if (!svc::decode_point(result.blob, &point) ||
        eval::point_digest(config_, point) != result.digest) {
      it.failures.push_back("PointResult digest does not match its blob");
    }
  }

  /// Service cost of a point served from the cache: every session resubmits
  /// a warm spec to the service the traced iteration used; no simulation
  /// runs.
  double cached_overhead_us() {
    const std::int64_t start = now_ns();
    for (std::uint32_t s = 0; s < sessions_; ++s) {
      std::vector<std::uint8_t> wire;
      svc::append_frame(svc::MsgType::kSubmitCampaign,
                        svc::encode(svc::SubmitCampaign{warm_spec(seed_, s % kWarmSpecs)}), wire);
      evald_->feed(ids_[s], wire);
    }
    evald_->drain();
    for (std::uint32_t s = 0; s < sessions_; ++s) (void)evald_->take_output(ids_[s]);
    return static_cast<double>(now_ns() - start) / 1e3 / (2.0 * sessions_);
  }

  std::uint64_t seed_;
  std::uint32_t sessions_;
  std::uint32_t campaigns_;
  eval::CampaignConfig config_;
  std::unique_ptr<svc::Evald> evald_;
  bool warmed_ = false;
  std::vector<svc::SessionId> ids_;
  std::map<std::uint64_t, std::uint64_t> blobs_;  // key -> FNV of its blob
  std::int64_t feed_ns_ = 0, pump_ns_ = 0;
  std::uint64_t feeds_ = 0, pumps_ = 0;
  Delta delta_;
};

}  // namespace

std::unique_ptr<Workload> make_svc_campaigns(std::uint64_t seed, Scale scale) {
  return std::make_unique<SvcBench>(seed, scale);
}

}  // namespace perfbench
