#include "net/fabric.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace pio::net {

Fabric::Fabric(sim::Engine& engine, const FabricConfig& config, std::uint32_t endpoints)
    : engine_(engine), config_(config) {
  if (endpoints == 0) throw std::invalid_argument("Fabric: zero endpoints");
  if (config.core_links <= 0.0) throw std::invalid_argument("Fabric: core_links must be > 0");
  inject_.reserve(endpoints);
  eject_.reserve(endpoints);
  for (std::uint32_t e = 0; e < endpoints; ++e) {
    inject_.push_back(std::make_unique<sim::FairShareChannel>(
        engine_, config.endpoint_bandwidth, config.endpoint_latency, flows_,
        config.name + ".inject." + std::to_string(e)));
    eject_.push_back(std::make_unique<sim::FairShareChannel>(
        engine_, config.endpoint_bandwidth, config.endpoint_latency, flows_,
        config.name + ".eject." + std::to_string(e)));
  }
  core_ = std::make_unique<sim::FairShareChannel>(
      engine_, config.endpoint_bandwidth * config.core_links, config.core_latency, flows_,
      config.name + ".core");
}

void Fabric::send(EndpointId src, EndpointId dst, Bytes size,
                  std::function<void()> on_delivered) {
  if (src >= inject_.size() || dst >= eject_.size()) {
    throw std::out_of_range("Fabric::send: endpoint out of range");
  }
  // During a brownout the message occupies factor× its real size on every
  // stage (the stats still record the true payload). The factor is latched
  // at send time so one message sees one consistent weather report.
  Bytes wire = size;
  bool degraded = false;
  if (timeline_ != nullptr) {
    const double factor = timeline_->slowdown(fault_id_, engine_.now());
    if (factor != 1.0) {
      degraded = true;
      // Negated comparison: a product that overflowed to infinity fails too.
      const double inflated = std::ceil(size.as_double() * factor);
      if (!(inflated < 0x1p64)) {
        throw std::overflow_error("Fabric::send: " + std::to_string(size.count()) +
                                  " B at brownout factor " + std::to_string(factor) +
                                  " exceeds 2^64 B on the wire");
      }
      wire = Bytes{static_cast<std::uint64_t>(inflated)};
    }
  }
  // Every stage must take the message now: a later stage that threw from
  // inside an engine event would strand the message's record. The ejection
  // link runs at the injection link's rate, so two checks cover all three.
  inject_[src]->check_drainable(wire);
  core_->check_drainable(wire);
  // Store-and-forward through the three stages. Each stage is itself a
  // fair-shared fluid channel, so concurrent senders contend realistically.
  // The message's record carries it to the ejection link, so each stage's
  // callback holds only [this, index] and fits std::function's local buffer.
  const std::uint32_t index = messages_.claim(dst, wire, std::move(on_delivered));
  try {
    inject_[src]->transfer(wire, [this, index] {
      core_->transfer(messages_[index].wire, [this, index] { eject(index); });
    });
  } catch (...) {
    messages_[index].on_delivered = nullptr;
    messages_.release(index);
    throw;
  }
  ++stats_.messages;
  stats_.bytes += size;
  if (degraded) ++stats_.degraded_messages;
}

void Fabric::eject(std::uint32_t index) {
  Message& message = messages_[index];
  const EndpointId dst = message.dst;
  const Bytes wire = message.wire;
  std::function<void()> done = std::move(message.on_delivered);
  messages_.release(index);
  eject_[dst]->transfer(wire, std::move(done));
}

SimTime Fabric::base_latency() const {
  return config_.endpoint_latency * 2 + config_.core_latency;
}

}  // namespace pio::net
