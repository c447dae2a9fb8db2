#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/check.hpp"

namespace pio::fault {

const char* to_string(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kOst: return "ost";
    case ComponentKind::kMds: return "mds";
    case ComponentKind::kComputeFabric: return "compute-fabric";
    case ComponentKind::kStorageFabric: return "storage-fabric";
    case ComponentKind::kBurstBuffer: return "burst-buffer";
  }
  return "?";
}

std::string to_string(const ComponentId& id) {
  return std::string(to_string(id.kind)) + "[" + std::to_string(id.index) + "]";
}

namespace {

FaultEvent make_event(ComponentId component, FaultKind kind, SimTime start, SimTime end,
                      double factor) {
  FaultEvent e;
  e.component = component;
  e.kind = kind;
  e.start = start;
  e.end = end;
  e.factor = factor;
  return e;
}

}  // namespace

FaultPlan& FaultPlan::ost_down(std::uint32_t ost, SimTime start, SimTime end) {
  events.push_back(make_event({ComponentKind::kOst, ost}, FaultKind::kDown, start, end, 1.0));
  return *this;
}

FaultPlan& FaultPlan::ost_straggler(std::uint32_t ost, SimTime start, SimTime end,
                                    double factor) {
  events.push_back(
      make_event({ComponentKind::kOst, ost}, FaultKind::kSlowdown, start, end, factor));
  return *this;
}

FaultPlan& FaultPlan::mds_down(SimTime start, SimTime end) {
  events.push_back(make_event({ComponentKind::kMds, 0}, FaultKind::kDown, start, end, 1.0));
  return *this;
}

FaultPlan& FaultPlan::mds_slowdown(SimTime start, SimTime end, double factor) {
  events.push_back(
      make_event({ComponentKind::kMds, 0}, FaultKind::kSlowdown, start, end, factor));
  return *this;
}

FaultPlan& FaultPlan::fabric_brownout(ComponentKind fabric, SimTime start, SimTime end,
                                      double factor) {
  if (fabric != ComponentKind::kComputeFabric && fabric != ComponentKind::kStorageFabric) {
    throw std::invalid_argument("FaultPlan::fabric_brownout: not a fabric component");
  }
  events.push_back(make_event({fabric, 0}, FaultKind::kSlowdown, start, end, factor));
  return *this;
}

FaultPlan& FaultPlan::bb_stall(std::uint32_t buffer, SimTime start, SimTime end) {
  events.push_back(
      make_event({ComponentKind::kBurstBuffer, buffer}, FaultKind::kDown, start, end, 1.0));
  return *this;
}

Timeline::Timeline(std::vector<FaultEvent> events) {
  for (const auto& e : events) {
    if (e.end <= e.start) {
      throw std::invalid_argument("fault::Timeline: event interval must have end > start (" +
                                  to_string(e.component) + ")");
    }
    // Negated comparisons so NaN and infinity are rejected too.
    if (e.kind == FaultKind::kSlowdown &&
        !(e.factor > 0.0 && e.factor < std::numeric_limits<double>::infinity())) {
      throw std::invalid_argument("fault::Timeline: slowdown factor must be finite and > 0 (" +
                                  to_string(e.component) + ")");
    }
    auto& component = components_[e.component.key()];
    if (e.kind == FaultKind::kDown) {
      component.down.push_back(Interval{e.start, e.end});
    } else {
      component.slow.push_back(e);
    }
    ++event_count_;
  }
  for (auto& [key, component] : components_) {
    // Merge overlapping/adjacent down intervals into a disjoint sorted set so
    // down()/down_until() are a single binary search.
    auto& down = component.down;
    std::sort(down.begin(), down.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    std::vector<Interval> merged;
    for (const auto& iv : down) {
      if (!merged.empty() && iv.start <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, iv.end);
      } else {
        merged.push_back(iv);
      }
    }
    down = std::move(merged);
    std::sort(component.slow.begin(), component.slow.end(),
              [](const FaultEvent& a, const FaultEvent& b) { return a.start < b.start; });
  }
}

const Timeline::Component* Timeline::find(ComponentId id) const {
  const auto it = components_.find(id.key());
  return it == components_.end() ? nullptr : &it->second;
}

bool Timeline::down(ComponentId id, SimTime t) const {
  const Component* component = find(id);
  if (component == nullptr || component->down.empty()) return false;
  // First interval starting after t; the candidate is its predecessor.
  auto it = std::upper_bound(component->down.begin(), component->down.end(), t,
                             [](SimTime v, const Interval& iv) { return v < iv.start; });
  if (it == component->down.begin()) return false;
  --it;
  return t < it->end;
}

SimTime Timeline::down_until(ComponentId id, SimTime t) const {
  const Component* component = find(id);
  if (component == nullptr) {
    throw std::logic_error("fault::Timeline::down_until: component not down: " + to_string(id));
  }
  auto it = std::upper_bound(component->down.begin(), component->down.end(), t,
                             [](SimTime v, const Interval& iv) { return v < iv.start; });
  if (it == component->down.begin() || t >= std::prev(it)->end) {
    throw std::logic_error("fault::Timeline::down_until: component not down: " + to_string(id));
  }
  return std::prev(it)->end;
}

SimTime Timeline::down_since(ComponentId id, SimTime t) const {
  const Component* component = find(id);
  if (component == nullptr) {
    throw std::logic_error("fault::Timeline::down_since: component not down: " + to_string(id));
  }
  auto it = std::upper_bound(component->down.begin(), component->down.end(), t,
                             [](SimTime v, const Interval& iv) { return v < iv.start; });
  if (it == component->down.begin() || t >= std::prev(it)->end) {
    throw std::logic_error("fault::Timeline::down_since: component not down: " + to_string(id));
  }
  return std::prev(it)->start;
}

std::vector<std::pair<SimTime, SimTime>> Timeline::down_intervals(ComponentId id) const {
  const Component* component = find(id);
  std::vector<std::pair<SimTime, SimTime>> out;
  if (component == nullptr) return out;
  out.reserve(component->down.size());
  for (const auto& iv : component->down) out.emplace_back(iv.start, iv.end);
  return out;
}

double Timeline::slowdown(ComponentId id, SimTime t) const {
  const Component* component = find(id);
  if (component == nullptr) return 1.0;
  double factor = 1.0;
  for (const auto& e : component->slow) {
    if (e.start > t) break;  // sorted by start: nothing later can be active
    if (t < e.end) factor *= e.factor;
  }
  return factor;
}

SimTime Timeline::scaled(ComponentId id, SimTime t, SimTime service) const {
  const double factor = slowdown(id, t);
  if (factor == 1.0) return service;
  return SimTime::from_sec_ceil(service.sec() * factor);
}

void Timeline::check_handler_allowed(ComponentId id, SimTime now) const {
  if constexpr (sim::check::kEnabled) {
    // Only pay for the detail string on the failure path.
    if (down(id, now)) {
      sim::check::handler_outside_down_interval(true, to_string(id).c_str());
    }
  } else {
    (void)id;
    (void)now;
  }
}

}  // namespace pio::fault
