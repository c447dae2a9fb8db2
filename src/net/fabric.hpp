// PIOEval network substrate: a CODES-lite fabric model.
//
// Fig. 1 of the paper has two fabrics: a fast compute interconnect
// (InfiniBand-class) between clients and I/O nodes, and a slower storage
// fabric (10GbE-class) between I/O nodes and the storage cluster. Both are
// instances of this three-stage fluid model: per-endpoint injection link →
// shared (possibly oversubscribed) core → per-endpoint ejection link. The
// model reproduces the first-order phenomena the evaluation tools must see:
// endpoint serialization, core saturation, and latency floors for small ops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace pio::net {

using EndpointId = std::uint32_t;

/// Static description of one fabric.
struct FabricConfig {
  Bandwidth endpoint_bandwidth = Bandwidth::from_gib_per_sec(10.0);  ///< NIC rate
  SimTime endpoint_latency = SimTime::from_us(1.0);                  ///< per-hop
  /// Core capacity as a multiple of one endpoint link. A fully provisioned
  /// fat-tree has core_oversubscription == number of endpoints; smaller
  /// values model tapered/oversubscribed networks.
  double core_links = 8.0;
  SimTime core_latency = SimTime::from_us(1.0);
  std::string name = "fabric";
};

/// Per-fabric aggregate counters (one of the "client-side hardware
/// statistics" sources in §IV.A.2).
struct FabricStats {
  std::uint64_t messages = 0;
  Bytes bytes = Bytes::zero();
  std::uint64_t degraded_messages = 0;  ///< sent during a brownout interval
};

/// Three-stage fluid fabric between `endpoints` numbered [0, n).
class Fabric {
 public:
  Fabric(sim::Engine& engine, const FabricConfig& config, std::uint32_t endpoints);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Deliver `size` bytes from `src` to `dst`; `on_delivered` fires when the
  /// last byte leaves the destination's ejection link. Zero-size messages
  /// model latency-only RPCs. Throws std::out_of_range for a bad endpoint
  /// and std::overflow_error when the message (inflated by an active
  /// brownout) does not fit in 64 bits or cannot drain within SimTime; a
  /// rejected send changes no stats and holds no record.
  void send(EndpointId src, EndpointId dst, Bytes size, std::function<void()> on_delivered);

  [[nodiscard]] std::uint32_t endpoints() const { return static_cast<std::uint32_t>(inject_.size()); }
  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }
  /// Message records in use: messages sent and not yet past the core.
  [[nodiscard]] std::size_t live_message_records() const { return messages_.live(); }

  /// One-way zero-load latency (three hops); used by models for cost floors.
  [[nodiscard]] SimTime base_latency() const;

  /// Attach the fault timeline (owned by the caller; must outlive the
  /// fabric's use) and this fabric's identity on it. During a brownout
  /// (slowdown factor m > 1) messages occupy m× their size on every stage,
  /// modelling the lost effective bandwidth of a degraded link set.
  void set_fault_timeline(const fault::Timeline* timeline, fault::ComponentId id) {
    timeline_ = timeline;
    fault_id_ = id;
  }

 private:
  /// One message from `send` until it enters its ejection link.
  struct Message {
    EndpointId dst;
    Bytes wire;
    std::function<void()> on_delivered;
  };

  /// Release a message's record and start its ejection stage.
  void eject(std::uint32_t index);

  sim::Engine& engine_;
  FabricConfig config_;
  /// Flow records of all 2n + 1 channels: one pool, so retained capacity
  /// tracks the fabric-wide peak of concurrent flows, not each link's.
  sim::FairShareChannel::FlowPool flows_;
  sim::SlotPool<Message> messages_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> inject_;
  std::vector<std::unique_ptr<sim::FairShareChannel>> eject_;
  std::unique_ptr<sim::FairShareChannel> core_;
  FabricStats stats_;
  const fault::Timeline* timeline_ = nullptr;
  fault::ComponentId fault_id_{fault::ComponentKind::kComputeFabric, 0};
};

}  // namespace pio::net
