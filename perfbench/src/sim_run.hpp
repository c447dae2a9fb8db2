// One execution-driven simulated run, observed from outside: the driver
// pulls each rank's next op through a wrapping workload (timing host cost
// per op over windows of completed ops and sampling the engine queue), the
// PFS model's OST/MDS observers count server-side work, and the fabrics'
// counters give message totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/sim_driver.hpp"
#include "harness.hpp"
#include "pfs/pfs.hpp"
#include "workload/op.hpp"

namespace perfbench {

struct SimOutcome {
  pio::driver::SimRunResult result;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t compute_msgs = 0;
  std::uint64_t storage_msgs = 0;
  pio::Bytes storage_bytes = pio::Bytes::zero();
  std::uint64_t ost_ops = 0;
  std::uint64_t mds_ops = 0;
  double mds_busy_s = 0.0;
  std::vector<double> ost_residence_us;  ///< traced runs only (OST observer)
  std::vector<double> ost_depth;         ///< traced runs only (OST observer)
  std::vector<double> op_ms;             ///< host ms per simulated op, per op window
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
};

/// Simulate `workload` on a fresh engine + model. With tracing on, the OST
/// and MDS observers record per-op server records; the run's event sequence
/// is the same either way.
[[nodiscard]] SimOutcome run_simulation(const pio::workload::Workload& workload,
                                        const pio::pfs::PfsConfig& system,
                                        const pio::driver::SimRunConfig& config,
                                        std::uint64_t seed, Spans& spans);

/// FNV-1a fold of every field of a SimRunResult.
[[nodiscard]] std::uint64_t digest_of(const pio::driver::SimRunResult& result);

/// The exact counts of a simulated run.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> exact_counts(
    const SimOutcome& outcome);

/// Per-layer metrics of the sim, net, pfs, driver and cache layers from a
/// traced simulated run; `gen_s` is the workload generation time.
void sim_layer_metrics(Report& report, const SimOutcome& outcome, double gen_s);

}  // namespace perfbench
