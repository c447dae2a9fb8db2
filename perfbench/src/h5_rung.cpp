// The h5 rung: the real-bytes measured path. Rank threads (par) write and
// read back column blocks of a 2-D dataset with collective HDF5-style
// hyperslab calls: h5 → mio two-phase collective buffering with two
// aggregators → trace::TracingBackend → vfs::LocalBackend (in memory).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "h5/h5.hpp"
#include "harness.hpp"
#include "ladder.hpp"
#include "mio/mio.hpp"
#include "par/comm.hpp"
#include "trace/backend_shim.hpp"
#include "vfs/backend.hpp"
#include "vfs/file_system.hpp"

namespace perfbench {

using namespace pio;

namespace {

constexpr std::uint64_t kDataStream = 0xBE7C0200;
constexpr const char* kPath = "/h5/bench.h5";
constexpr const char* kDataset = "/fields/density";

mio::Hints two_aggregators() {
  mio::Hints hints;
  hints.cb_nodes = 2;
  return hints;
}

h5::Hyperslab column_block(const H5Params& p, int rank) {
  const std::uint64_t width = p.cols / kH5Ranks;
  return h5::Hyperslab{{0, static_cast<std::uint64_t>(rank) * width}, {p.rows, width}};
}

std::vector<std::byte> seeded_block(std::uint64_t seed, int rank, std::size_t bytes) {
  std::vector<std::byte> data(bytes);
  Rng rng{seed, kDataStream + static_cast<std::uint64_t>(rank)};
  for (std::size_t i = 0; i < bytes; i += 8) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(data.data() + i, &v, std::min<std::size_t>(8, bytes - i));
  }
  return data;
}

/// Stamp the call index into the block so every call writes new bytes.
void stamp(std::vector<std::byte>& data, std::uint64_t call) {
  std::memcpy(data.data(), &call, std::min<std::size_t>(8, data.size()));
}

template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.ok()) throw std::runtime_error(std::string{what} + ": " + result.error().message);
  return std::move(result.value());
}

class H5Collective {
 public:
  H5Collective(H5Params params, std::uint64_t seed) : params_(params), seed_(seed) {}

  void setup() {
    fs_ = std::make_unique<vfs::FileSystem>();
    backend_ = std::make_unique<vfs::LocalBackend>(*fs_);
    (void)backend_->mkdir("/h5");
    par::Runtime runtime{kH5Ranks};
    runtime.run([&](par::Comm& comm) {
      auto file = must(h5::H5File::create_all(comm, *backend_, kPath, two_aggregators()),
                       "H5File::create_all");
      (void)must(file->create_group("/fields"), "create_group");
      (void)must(file->create_dataset(kDataset, 8, h5::Dataspace{{params_.rows, params_.cols}}),
                 "create_dataset");
      if (file->close_all() != vfs::FsStatus::kOk) throw std::runtime_error("close_all failed");
    });
    blocks_.clear();
    outs_.clear();
    const std::size_t bytes = block_bytes();
    for (int r = 0; r < kH5Ranks; ++r) {
      blocks_.push_back(seeded_block(seed_, r, bytes));
      outs_.emplace_back(bytes);
    }
  }

  Iteration run(Spans& spans) {
    const std::size_t calls = params_.calls;
    last_ = Samples{};
    last_.write_ns.assign(calls * kH5Ranks, 0);
    last_.read_ns.assign(calls * kH5Ranks, 0);
    last_.barrier_ns.assign(calls * kH5Ranks, 0);
    last_.meta_ns.assign(kH5Ranks, 0);
    last_.posix_ops.assign(kH5Ranks, 0);
    std::atomic<std::uint64_t> mismatches{0};
    CountingSink sink;
    const trace::WallClock clock;
    Iteration it;
    const std::int64_t start = now_ns();
    try {
      par::Runtime runtime{kH5Ranks};
      runtime.run([&](par::Comm& comm) {
        const int r = comm.rank();
        const auto ri = static_cast<std::size_t>(r);
        trace::TracingBackend traced{*backend_, sink, clock, r};
        std::vector<std::byte>& data = blocks_[ri];
        std::vector<std::byte>& out = outs_[ri];
        const h5::Hyperslab slab = column_block(params_, r);

        std::int64_t t0 = now_ns();
        std::unique_ptr<h5::H5File> file;
        std::optional<h5::Dataset> dataset;
        {
          const auto span = spans.scope("h5.meta");
          file = must(h5::H5File::open_all(comm, traced, kPath, two_aggregators()),
                      "H5File::open_all");
          dataset = must(file->open_dataset(kDataset), "open_dataset");
        }
        std::int64_t meta = now_ns() - t0;
        for (std::size_t c = 0; c < calls; ++c) {
          stamp(data, c);
          t0 = now_ns();
          {
            const auto span = spans.scope("h5.write", c + 1);
            (void)must(dataset->write(slab, data, true), "Dataset::write");
          }
          const std::int64_t t1 = now_ns();
          {
            const auto span = spans.scope("h5.read", c + 1);
            (void)must(dataset->read(slab, out, true), "Dataset::read");
          }
          const std::int64_t t2 = now_ns();
          if (out != data) mismatches.fetch_add(1);
          {
            const auto span = spans.scope("par.barrier", c + 1);
            comm.barrier();
          }
          last_.write_ns[c * kH5Ranks + ri] = t1 - t0;
          last_.read_ns[c * kH5Ranks + ri] = t2 - t1;
          last_.barrier_ns[c * kH5Ranks + ri] = now_ns() - t2;
        }
        const mio::File::PosixCounters& posix = file->mio_file().posix_counters();
        last_.posix_ops[ri] = posix.reads + posix.writes;
        t0 = now_ns();
        {
          const auto span = spans.scope("h5.meta");
          if (file->close_all() != vfs::FsStatus::kOk) throw std::runtime_error("close_all failed");
        }
        last_.meta_ns[ri] = meta + now_ns() - t0;
      });
    } catch (const std::exception& e) {
      it.failures.push_back(std::string{"h5 collective run threw: "} + e.what());
    }
    it.wall_s = seconds_since(start);
    it.ops = 2 * calls;
    if (mismatches.load() != 0) {
      it.failures.push_back("h5 read-back differs from the bytes written");
      it.failed = mismatches.load();
    }
    last_.trace_events = sink.events();
    return it;
  }

  void layer_metrics(Report& report, const Iteration& traced) {
    std::vector<double> writes, reads;
    for (std::size_t c = 1; c < params_.calls; ++c) {
      writes.push_back(slowest(last_.write_ns, c) / 1e6);
      reads.push_back(slowest(last_.read_ns, c) / 1e6);
    }
    double meta = 0.0, barrier = 0.0;
    for (const std::int64_t ns : last_.meta_ns) meta = std::max(meta, static_cast<double>(ns));
    for (const std::int64_t ns : last_.barrier_ns) barrier += static_cast<double>(ns);
    std::uint64_t posix = 0;
    for (const std::uint64_t n : last_.posix_ops) posix += n;
    report.metric("h5.write_ms", median(writes), "ms");
    report.metric("h5.read_ms", median(reads), "ms");
    report.metric("h5.meta_ms", meta / 1e6, "ms");
    report.metric("mio.posix_ops_per_call", per(static_cast<double>(posix), traced.ops), "ratio");
    report.metric("par.barrier_wait_ms", per(barrier / 1e6, last_.barrier_ns.size()), "ms");
    report.metric("trace.events", static_cast<double>(last_.trace_events), "count");
  }

 private:
  struct Samples {
    std::vector<std::int64_t> write_ns, read_ns, barrier_ns, meta_ns;
    std::vector<std::uint64_t> posix_ops;
    std::uint64_t trace_events = 0;
  };

  [[nodiscard]] std::size_t block_bytes() const {
    return std::size_t{params_.rows} * (params_.cols / kH5Ranks) * 8;
  }

  static double slowest(const std::vector<std::int64_t>& ns, std::size_t call) {
    std::int64_t worst = 0;
    for (int r = 0; r < kH5Ranks; ++r) {
      worst = std::max(worst, ns[call * kH5Ranks + static_cast<std::size_t>(r)]);
    }
    return static_cast<double>(worst);
  }

  H5Params params_;
  std::uint64_t seed_;
  std::unique_ptr<vfs::FileSystem> fs_;
  std::unique_ptr<vfs::LocalBackend> backend_;
  std::vector<std::vector<std::byte>> blocks_;  ///< per rank, stamped per call
  std::vector<std::vector<std::byte>> outs_;    ///< per rank read-back buffers
  Samples last_;
};

}  // namespace

H5Params h5_params_for(Bytes transfer, std::uint32_t calls) {
  H5Params p;
  p.cols = 512;
  const std::uint64_t row_bytes = std::uint64_t{p.cols / kH5Ranks} * 8;
  p.rows = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, transfer.count() / row_bytes));
  p.calls = calls;
  return p;
}

void h5_rung(H5Params params, std::uint64_t seed, Spans& spans, Report& report) {
  H5Collective h5{params, seed};
  h5.setup();
  const Iteration it = h5.run(spans);
  for (const std::string& f : it.failures) report.check(false, "h5 rung: " + f);
  h5.layer_metrics(report, it);
}

MioAlone run_mio_alone(H5Params params, std::uint64_t seed, Spans& spans) {
  vfs::FileSystem fs;
  vfs::LocalBackend backend{fs};
  (void)backend.mkdir("/mio");
  const std::size_t calls = params.calls;
  std::vector<std::int64_t> write_ns(calls * kH5Ranks, 0), read_ns(calls * kH5Ranks, 0);
  std::atomic<std::uint64_t> mismatches{0};
  par::Runtime runtime{kH5Ranks};
  runtime.run([&](par::Comm& comm) {
    const int r = comm.rank();
    const auto ri = static_cast<std::size_t>(r);
    // The h5 file is opened only to map the column block to file extents.
    auto layout = must(h5::H5File::create_all(comm, backend, "/mio/layout.h5"), "create_all");
    const h5::Dataset dataset = must(
        layout->create_dataset(kDataset, 8, h5::Dataspace{{params.rows, params.cols}}),
        "create_dataset");
    const std::vector<mio::Extent> extents =
        must(dataset.extents_of(column_block(params, r)), "extents_of");
    (void)layout->close_all();
    auto file = must(mio::File::open_all(comm, backend, "/mio/alone", true, two_aggregators()),
                     "mio::File::open_all");
    std::vector<std::byte> data =
        seeded_block(seed, r, static_cast<std::size_t>(mio::total_length(extents).count()));
    std::vector<std::byte> out(data.size());
    for (std::size_t c = 0; c < calls; ++c) {
      stamp(data, c);
      const std::int64_t t0 = now_ns();
      {
        const auto span = spans.scope("mio.write_at_all", c + 1);
        (void)must(file->write_at_all(extents, data), "write_at_all");
      }
      const std::int64_t t1 = now_ns();
      {
        const auto span = spans.scope("mio.read_at_all", c + 1);
        (void)must(file->read_at_all(extents, out), "read_at_all");
      }
      write_ns[c * kH5Ranks + ri] = t1 - t0;
      read_ns[c * kH5Ranks + ri] = now_ns() - t1;
      if (out != data) mismatches.fetch_add(1);
    }
    (void)file->close_all();
  });
  std::vector<double> writes, reads;
  for (std::size_t c = 0; c < calls; ++c) {
    std::int64_t w = 0, rd = 0;
    for (std::size_t r = 0; r < static_cast<std::size_t>(kH5Ranks); ++r) {
      w = std::max(w, write_ns[c * kH5Ranks + r]);
      rd = std::max(rd, read_ns[c * kH5Ranks + r]);
    }
    writes.push_back(static_cast<double>(w) / 1e6);
    reads.push_back(static_cast<double>(rd) / 1e6);
  }
  return MioAlone{median(writes), median(reads), mismatches.load() == 0};
}

}  // namespace perfbench
