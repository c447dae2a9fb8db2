// Pieces shared between the workloads and the ladder rungs.
#pragma once

#include <cstdint>
#include <memory>

#include "harness.hpp"
#include "svc/messages.hpp"

namespace perfbench {

/// Median host ms of eval::evaluate_point on a fresh point: the first
/// workload of `spec`, computed `reps` times under distinct seeds.
[[nodiscard]] double cold_point_ms(const pio::svc::CampaignSpec& spec, int reps, Spans& spans);

/// Share of the pool's capacity that computing points used during pump():
/// computed points × serial cold-point cost / (pump wall × pool threads).
[[nodiscard]] double pump_efficiency(std::uint64_t computed, double cold_ms, double pump_ms);

/// HDF5 collective hyperslab writes and read-backs of column blocks by
/// `kH5Ranks` rank threads: h5 → mio (two aggregators) → TracingBackend →
/// LocalBackend.
struct H5Params {
  std::uint32_t rows = 512;
  std::uint32_t cols = 512;   ///< doubles; each rank owns cols / kH5Ranks
  std::uint32_t calls = 17;   ///< write + read-back pairs per iteration (first: warm-up)
};
inline constexpr int kH5Ranks = 4;

/// H5 params whose per-rank block matches `transfer` bytes per call.
[[nodiscard]] H5Params h5_params_for(pio::Bytes transfer, std::uint32_t calls);

/// One iteration of `params.calls` pairs (the first a warm-up); adds the
/// h5, mio.posix_ops_per_call, par and trace metrics to `report` and checks
/// the read-back byte for byte.
void h5_rung(H5Params params, std::uint64_t seed, Spans& spans, Report& report);

/// mio alone: write_at_all/read_at_all of the extents Dataset::extents_of
/// gives for each rank's column block, without the h5 layer on top.
struct MioAlone {
  double write_ms = 0.0;  ///< per collective call, slowest rank, median
  double read_ms = 0.0;
  bool read_back_exact = true;
};
[[nodiscard]] MioAlone run_mio_alone(H5Params params, std::uint64_t seed, Spans& spans);

}  // namespace perfbench
