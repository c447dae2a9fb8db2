// pio::sim::FairShareChannel in virtual time and the net::Fabric built on it
// (DESIGN.md §17).
//
// The channel keeps one virtual clock and a heap of finish tags so each admit
// or completion is O(log n). Reference models live here, test-only:
//
//  - ListChannel: the original O(n) design — a list of flows, every one
//    walked on each admit and completion — but with the channel's exact
//    integer arithmetic. The two must agree to the nanosecond and in
//    completion order on any arrival storm; that is the differential test.
//  - DoubleChannel: the original design as it was, `double` bytes and a
//    0.5-byte "drained" threshold. Its completions may differ by a bounded
//    drift; the drift test pins that bound.
//  - ReferenceFabric: net::Fabric::send before message records, each stage's
//    callback capturing the rest of the route by value. Fabric must deliver
//    in the same order at the same ns.
//
// The binary also counts global operator new calls, so the steady-state
// fabric hop can be shown to allocate nothing.
//
// piolint: allow-file(C2) — every capture-by-reference handler below is
// drained by an engine run inside the same scope.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <list>
#include <memory>
#include <new>
#include <ostream>
#include <random>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "fault/fault.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

// ------------------------------------------------ global allocation counter

namespace {
std::atomic<std::uint64_t> g_allocations{0};

[[gnu::noinline]] void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// None of these is inlined: GCC would otherwise pair the malloc() inside
// one with the free() inside another and warn of a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pio {
namespace {

using namespace pio::literals;
using sim::FairShareChannel;
using Work = FairShareChannel::Work;

/// The O(n) list channel with the same integer arithmetic as
/// FairShareChannel: each flow holds its remaining work, every flow is
/// walked on each advance, and the minimum is found by a scan.
class ListChannel {
 public:
  ListChannel(sim::Engine& engine, Bandwidth capacity, SimTime latency)
      : engine_(engine), rate_(FairShareChannel::whole_rate(capacity)), latency_(latency) {}

  void transfer(Bytes size, std::function<void()> on_done) {
    if (size == Bytes::zero()) {
      engine_.schedule_after(latency_, std::move(on_done));
      return;
    }
    engine_.schedule_after(latency_, [this, size, done = std::move(on_done)]() mutable {
      advance_progress();
      flows_.push_back(Flow{Work{size.count()} * FairShareChannel::kWorkPerByte, std::move(done)});
      reschedule_completion();
    });
  }

 private:
  struct Flow {
    Work remaining;
    std::function<void()> on_done;
  };

  void advance_progress() {
    const SimTime now = engine_.now();
    if (!flows_.empty()) {
      const Work service =
          Work{rate_} * static_cast<std::uint64_t>((now - last_progress_).ns()) + carry_;
      const Work step = service / flows_.size();
      carry_ = service % flows_.size();
      for (auto& flow : flows_) flow.remaining = flow.remaining > step ? flow.remaining - step : 0;
    }
    last_progress_ = now;
  }

  void reschedule_completion() {
    if (pending_ != 0) {
      engine_.cancel(pending_);
      pending_ = 0;
    }
    if (flows_.empty()) return;
    Work min_remaining = flows_.front().remaining;
    for (const auto& flow : flows_) min_remaining = std::min(min_remaining, flow.remaining);
    const Work owed = min_remaining * flows_.size();
    const Work delay = owed > carry_ ? (owed - carry_ + rate_ - 1) / rate_ : 0;
    pending_ = engine_.schedule_after(SimTime::from_ns(static_cast<std::int64_t>(delay)), [this] {
      pending_ = 0;
      complete_drained();
    });
  }

  void complete_drained() {
    advance_progress();
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->remaining == 0) {
        done.push_back(std::move(it->on_done));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    if (flows_.empty()) carry_ = 0;
    reschedule_completion();
    for (auto& fn : done) fn();
  }

  sim::Engine& engine_;
  std::uint64_t rate_;
  SimTime latency_;
  std::list<Flow> flows_;
  Work carry_ = 0;
  SimTime last_progress_ = SimTime::zero();
  sim::EventId pending_ = 0;
};

/// The original floating-point channel, unchanged: `double` remaining bytes,
/// flows within half a byte of empty count as drained.
class DoubleChannel {
 public:
  DoubleChannel(sim::Engine& engine, Bandwidth capacity, SimTime latency)
      : engine_(engine), capacity_(capacity), latency_(latency) {}

  void transfer(Bytes size, std::function<void()> on_done) {
    if (size == Bytes::zero()) {
      engine_.schedule_after(latency_, std::move(on_done));
      return;
    }
    engine_.schedule_after(latency_, [this, size, done = std::move(on_done)]() mutable {
      advance_progress();
      flows_.push_back(Flow{size.as_double(), std::move(done)});
      reschedule_completion();
    });
  }

 private:
  struct Flow {
    double remaining_bytes;
    std::function<void()> on_done;
  };

  void advance_progress() {
    const SimTime now = engine_.now();
    if (!flows_.empty() && now > last_progress_) {
      const double rate = capacity_.bytes_per_sec() / static_cast<double>(flows_.size());
      const double progressed = rate * (now - last_progress_).sec();
      for (auto& flow : flows_) {
        flow.remaining_bytes = std::max(0.0, flow.remaining_bytes - progressed);
      }
    }
    last_progress_ = now;
  }

  void reschedule_completion() {
    if (pending_ != 0) {
      engine_.cancel(pending_);
      pending_ = 0;
    }
    if (flows_.empty()) return;
    double min_remaining = std::numeric_limits<double>::max();
    for (const auto& flow : flows_) min_remaining = std::min(min_remaining, flow.remaining_bytes);
    const double rate = capacity_.bytes_per_sec() / static_cast<double>(flows_.size());
    pending_ = engine_.schedule_after(SimTime::from_sec_ceil(min_remaining / rate), [this] {
      pending_ = 0;
      complete_drained();
    });
  }

  void complete_drained() {
    advance_progress();
    std::vector<std::function<void()>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->remaining_bytes <= 0.5) {
        done.push_back(std::move(it->on_done));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    reschedule_completion();
    for (auto& fn : done) fn();
  }

  sim::Engine& engine_;
  Bandwidth capacity_;
  SimTime latency_;
  std::list<Flow> flows_;
  SimTime last_progress_ = SimTime::zero();
  sim::EventId pending_ = 0;
};

/// net::Fabric::send as it was before message records: the inject stage's
/// callback captures the destination, the wire size and the user callback,
/// and so does the core stage's, so each hop heap-allocates its closure.
class ReferenceFabric {
 public:
  ReferenceFabric(sim::Engine& engine, const net::FabricConfig& config, std::uint32_t endpoints)
      : engine_(engine) {
    for (std::uint32_t e = 0; e < endpoints; ++e) {
      inject_.push_back(std::make_unique<FairShareChannel>(engine, config.endpoint_bandwidth,
                                                           config.endpoint_latency, flows_));
      eject_.push_back(std::make_unique<FairShareChannel>(engine, config.endpoint_bandwidth,
                                                          config.endpoint_latency, flows_));
    }
    core_ = std::make_unique<FairShareChannel>(
        engine, config.endpoint_bandwidth * config.core_links, config.core_latency, flows_);
  }

  void set_fault_timeline(const fault::Timeline* timeline, fault::ComponentId id) {
    timeline_ = timeline;
    fault_id_ = id;
  }

  void send(net::EndpointId src, net::EndpointId dst, Bytes size,
            std::function<void()> on_delivered) {
    Bytes wire = size;
    if (timeline_ != nullptr) {
      const double factor = timeline_->slowdown(fault_id_, engine_.now());
      if (factor != 1.0) {
        wire = Bytes{static_cast<std::uint64_t>(std::ceil(size.as_double() * factor))};
      }
    }
    inject_[src]->transfer(wire, [this, dst, wire, done = std::move(on_delivered)]() mutable {
      core_->transfer(wire, [this, dst, wire, done = std::move(done)]() mutable {
        eject_[dst]->transfer(wire, std::move(done));
      });
    });
  }

 private:
  sim::Engine& engine_;
  FairShareChannel::FlowPool flows_;
  std::vector<std::unique_ptr<FairShareChannel>> inject_;
  std::vector<std::unique_ptr<FairShareChannel>> eject_;
  std::unique_ptr<FairShareChannel> core_;
  const fault::Timeline* timeline_ = nullptr;
  fault::ComponentId fault_id_{fault::ComponentKind::kComputeFabric, 0};
};

// ------------------------------------------------------------ arrival storms

struct Arrival {
  std::int64_t at_ns;
  Bytes size;
};

struct Completion {
  std::size_t flow;  ///< index into the storm
  std::int64_t at_ns;
  bool operator==(const Completion&) const = default;
};

/// A seeded random arrival storm: bursts of up to `max_burst` flows, sizes
/// log-uniform over 1 B–64 MiB, a share of them repeating an earlier size in
/// the same burst (equal tags) and many admitted at the same nanosecond.
std::vector<Arrival> make_storm(std::uint64_t seed, std::size_t bursts, std::size_t max_burst) {
  std::mt19937_64 rng{seed};
  std::vector<Arrival> storm;
  std::int64_t t = 0;
  for (std::size_t b = 0; b < bursts; ++b) {
    t += static_cast<std::int64_t>(rng() % 50'000'000u);  // gaps up to 50 ms, idle or not
    const std::size_t flows = 1 + rng() % max_burst;
    const std::size_t first = storm.size();
    std::int64_t at = t;
    for (std::size_t f = 0; f < flows; ++f) {
      if (rng() % 2 == 0) at += static_cast<std::int64_t>(rng() % 20'000u);  // else: same ns
      Bytes size{1};
      if (f > 0 && rng() % 4 == 0) {
        size = storm[first + rng() % f].size;  // equal sizes → tag ties
      } else {
        const unsigned shift = static_cast<unsigned>(rng() % 27);  // up to 2^26 B = 64 MiB
        size = Bytes{std::uint64_t{1} << shift};
        if (shift > 0) size = Bytes{size.count() + rng() % size.count()};
        size = std::min(size, Bytes::from_mib(64));
      }
      storm.push_back(Arrival{at, size});
    }
  }
  return storm;
}

/// A channel under test; only FairShareChannel keeps its flows in `pool`.
template <class Channel>
Channel make_link(sim::Engine& engine, Bandwidth capacity, SimTime latency,
                  FairShareChannel::FlowPool& pool) {
  if constexpr (std::is_same_v<Channel, FairShareChannel>) {
    return Channel{engine, capacity, latency, pool};
  } else {
    return Channel{engine, capacity, latency};
  }
}

template <class Channel>
std::vector<Completion> run_storm(const std::vector<Arrival>& storm, Bandwidth capacity,
                                  SimTime latency) {
  sim::Engine engine;
  FairShareChannel::FlowPool pool;
  Channel link = make_link<Channel>(engine, capacity, latency, pool);
  std::vector<Completion> done;
  done.reserve(storm.size());
  for (std::size_t i = 0; i < storm.size(); ++i) {
    engine.schedule_at(SimTime::from_ns(storm[i].at_ns), [&, i] {
      link.transfer(storm[i].size, [&, i] { done.push_back(Completion{i, engine.now().ns()}); });
    });
  }
  engine.run();
  engine.assert_drained();
  return done;
}

const std::vector<Bandwidth>& capacities() {
  static const std::vector<Bandwidth> kCapacities = {
      Bandwidth::from_mib_per_sec(100.0),        // slow link: long busy periods
      Bandwidth::from_gib_per_sec(10.0),         // an endpoint NIC
      Bandwidth::from_gib_per_sec(10.0) * 8.0,   // a fabric core
      Bandwidth{1'000'000'007.0},                // prime: remainders everywhere
      Bandwidth{12'345.0},                       // crawl: huge owed·n products
      Bandwidth::from_mib_per_sec(117.3),        // not whole: rounded once
  };
  return kCapacities;
}

// ------------------------------------------------------- differential tests

TEST(FairShareDifferential, MatchesListReferenceToTheNanosecond) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto storm = make_storm(seed, 24, 96);
    for (const Bandwidth capacity : capacities()) {
      for (const SimTime latency : {0_us, 1_us}) {
        const auto fast = run_storm<FairShareChannel>(storm, capacity, latency);
        const auto ref = run_storm<ListChannel>(storm, capacity, latency);
        ASSERT_EQ(fast.size(), storm.size());
        ASSERT_EQ(fast, ref) << "seed " << seed << ", capacity " << capacity.bytes_per_sec()
                             << " B/s, latency " << latency.ns() << " ns";
      }
    }
  }
}

TEST(FairShareDifferential, MatchesListReferenceOnBurstsOf4096) {
  for (std::uint64_t seed = 101; seed <= 102; ++seed) {
    auto storm = make_storm(seed, 2, 64);
    // A 4096-flow burst: a quarter admitted at one instant, and every
    // fourth flow 8 MiB, so hundreds of flows share a finish tag.
    std::mt19937_64 rng{seed};
    const std::int64_t t0 = storm.back().at_ns + 1000;
    for (std::size_t f = 0; f < 4096; ++f) {
      const auto at = t0 + (f < 1024 ? 0 : static_cast<std::int64_t>(rng() % 3'000'000u));
      const Bytes size = f % 4 == 0 ? Bytes::from_mib(8) : Bytes{1 + rng() % (64u << 20)};
      storm.push_back(Arrival{at, size});
    }
    for (const Bandwidth capacity : {Bandwidth::from_gib_per_sec(10.0) * 8.0,
                                     Bandwidth{1'000'000'007.0}}) {
      const auto fast = run_storm<FairShareChannel>(storm, capacity, 1_us);
      const auto ref = run_storm<ListChannel>(storm, capacity, 1_us);
      ASSERT_EQ(fast.size(), storm.size());
      ASSERT_EQ(fast, ref) << "seed " << seed << ", capacity " << capacity.bytes_per_sec();
    }
  }
}

// The drift from the original `double` channel. The double model retires a
// flow once less than half a byte is left, so each completion can free the
// link up to 0.5 B / capacity early, and every later flow in the same busy
// period inherits that shift; each side also rounds every completion up to
// the next ns. The bound sums, over every completion in the storm, one full
// byte-time (the half byte, doubled for float rounding) plus 2 ns. Measured
// worst drift is under half of it: ~200 byte-times over 1,400 flows at
// 100 MiB/s (~2 µs), 0–1 ns at 10 GiB/s and above.
TEST(FairShareDifferential, DriftFromDoubleModelIsBounded) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto storm = make_storm(seed, 24, 96);
    for (const Bandwidth capacity : capacities()) {
      const auto fast = run_storm<FairShareChannel>(storm, capacity, 1_us);
      const auto seed_model = run_storm<DoubleChannel>(storm, capacity, 1_us);
      ASSERT_EQ(fast.size(), seed_model.size());
      std::vector<std::int64_t> fast_at(storm.size());
      std::vector<std::int64_t> seed_at(storm.size());
      for (const auto& c : fast) fast_at[c.flow] = c.at_ns;
      for (const auto& c : seed_model) seed_at[c.flow] = c.at_ns;
      const std::int64_t per_completion = capacity.transfer_time(Bytes{1}).ns() + 2;
      const auto bound = static_cast<std::int64_t>(storm.size()) * per_completion;
      std::int64_t worst = 0;
      for (std::size_t i = 0; i < storm.size(); ++i) {
        worst = std::max(worst, std::abs(fast_at[i] - seed_at[i]));
      }
      EXPECT_LE(worst, bound) << "seed " << seed << ", capacity " << capacity.bytes_per_sec();
    }
  }
}

/// A closed loop on one channel: `concurrency` flows start at t = 0 and each
/// completion issues the next size from its own on_done, so at most
/// `concurrency` flows share the channel and their records are reused.
template <class Channel>
std::vector<Completion> run_closed_loop(const std::vector<Bytes>& sizes, std::size_t concurrency,
                                        Bandwidth capacity, SimTime latency) {
  sim::Engine engine;
  FairShareChannel::FlowPool pool;
  Channel link = make_link<Channel>(engine, capacity, latency, pool);
  std::vector<Completion> done;
  done.reserve(sizes.size());
  std::size_t next = 0;
  std::function<void()> issue = [&] {
    const std::size_t i = next++;
    link.transfer(sizes[i], [&, i] {
      done.push_back(Completion{i, engine.now().ns()});
      if (next < sizes.size()) issue();
    });
  };
  while (next < std::min(concurrency, sizes.size())) issue();
  engine.run();
  engine.assert_drained();
  return done;
}

/// `count` sizes log-uniform over 1 B–1 MiB, a quarter repeating the size
/// before (so flows admitted together tie).
std::vector<Bytes> make_sizes(std::uint64_t seed, std::size_t count) {
  std::mt19937_64 rng{seed};
  std::vector<Bytes> sizes;
  sizes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0 && rng() % 4 == 0) {
      sizes.push_back(sizes.back());
      continue;
    }
    const unsigned shift = static_cast<unsigned>(rng() % 21);
    sizes.push_back(Bytes{(std::uint64_t{1} << shift) + rng() % (std::uint64_t{1} << shift)});
  }
  return sizes;
}

TEST(FairShareDifferential, LongClosedLoopReusesFlowRecords) {
  // 120k flows through at most 48 at a time: every pool record and heap
  // position is reused thousands of times.
  const auto sizes = make_sizes(7, 120'000);
  const Bandwidth capacity{1'000'000'007.0};
  const auto fast = run_closed_loop<FairShareChannel>(sizes, 48, capacity, 1_us);
  const auto ref = run_closed_loop<ListChannel>(sizes, 48, capacity, 1_us);
  ASSERT_EQ(fast.size(), sizes.size());
  ASSERT_EQ(fast, ref);
}

TEST(FairShareDifferential, ZeroLatencyTransferFromOnDoneMatchesReference) {
  // With latency 0 the follow-up's admission runs in the completion's own
  // nanosecond, right after the callback that issued it.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto sizes = make_sizes(seed, 20'000);
    for (const std::size_t concurrency : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
      const auto fast =
          run_closed_loop<FairShareChannel>(sizes, concurrency, Bandwidth{12'345'678.0}, 0_us);
      const auto ref =
          run_closed_loop<ListChannel>(sizes, concurrency, Bandwidth{12'345'678.0}, 0_us);
      ASSERT_EQ(fast.size(), sizes.size());
      ASSERT_EQ(fast, ref) << "seed " << seed << ", concurrency " << concurrency;
    }
  }
}

TEST(FairShareDifferential, TiesOnBothSidesOfSingleDrains) {
  // Bursts of two to five flows at one instant, sizes from {4 KiB, 64 KiB}:
  // completions alternate between lone flows and tied groups.
  std::mt19937_64 rng{29};
  std::vector<Arrival> storm;
  std::int64_t t = 0;
  for (int burst = 0; burst < 400; ++burst) {
    t += static_cast<std::int64_t>(rng() % 40'000u);
    const std::size_t flows = 2 + rng() % 4;
    for (std::size_t f = 0; f < flows; ++f) {
      storm.push_back(Arrival{t, rng() % 3 == 0 ? Bytes{65536} : Bytes{4096}});
    }
  }
  for (const SimTime latency : {0_us, 1_us}) {
    const auto fast = run_storm<FairShareChannel>(storm, Bandwidth{1e9}, latency);
    const auto ref = run_storm<ListChannel>(storm, Bandwidth{1e9}, latency);
    ASSERT_EQ(fast.size(), storm.size());
    ASSERT_EQ(fast, ref) << "latency " << latency.ns() << " ns";
    // Both paths ran: some instants complete one flow, some several.
    std::size_t lone = 0;
    std::size_t tied = 0;
    for (std::size_t i = 0; i < fast.size();) {
      std::size_t j = i;
      while (j < fast.size() && fast[j].at_ns == fast[i].at_ns) ++j;
      (j - i == 1 ? lone : tied) += 1;
      i = j;
    }
    EXPECT_GT(lone, 100u);
    EXPECT_GT(tied, 100u);
  }
}

// --------------------------------------------------------- exact arithmetic

TEST(FairShareChannelExact, SingleFlowTakesCeilOfWorkOverRate) {
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth{3.0}, 0_us, pool};
  std::int64_t done = -1;
  link.transfer(Bytes{10}, [&] { done = e.now().ns(); });
  e.run();
  EXPECT_EQ(done, 3'333'333'334);  // 10 B at 3 B/s, rounded up to the ns
}

TEST(FairShareChannelExact, EqualTagsCompleteTogetherInAdmissionOrder) {
  // A (2 MB) runs alone for 1 ms at 1 GB/s, so it has 1 MB left when B
  // (1 MB) arrives: equal finish tags. Both drain at 3 ms in one event.
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth{1e9}, 0_us, pool};
  std::vector<char> order;
  std::vector<std::int64_t> at;
  std::size_t active_when_a_fired = 99;
  link.transfer(Bytes{2'000'000}, [&] {
    order.push_back('A');
    at.push_back(e.now().ns());
    active_when_a_fired = link.active_flows();
  });
  e.schedule_at(1_ms, [&] {
    link.transfer(Bytes{1'000'000}, [&] {
      order.push_back('B');
      at.push_back(e.now().ns());
    });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
  EXPECT_EQ(at, (std::vector<std::int64_t>{3'000'000, 3'000'000}));
  EXPECT_EQ(active_when_a_fired, 0u) << "tied flows leave the channel in the same event";
}

TEST(FairShareChannelExact, CarryKeepsStaggeredBusyPeriodWorkConserving) {
  // 10 B/s: A (1 B) at t=0, B and C (1 B each) at t=1 ns. Three bytes leave
  // in exactly 0.3 s; A first, 2 ns before B and C.
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth{10.0}, 0_us, pool};
  std::vector<std::int64_t> at(3, -1);
  link.transfer(Bytes{1}, [&] { at[0] = e.now().ns(); });
  e.schedule_at(1_ns, [&] {
    link.transfer(Bytes{1}, [&] { at[1] = e.now().ns(); });
    link.transfer(Bytes{1}, [&] { at[2] = e.now().ns(); });
  });
  e.run();
  EXPECT_EQ(at, (std::vector<std::int64_t>{299'999'998, 300'000'000, 300'000'000}));
  EXPECT_EQ(link.bytes_moved(), Bytes{3});
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(FairShareChannelExact, IdleChannelRestartsFromAFreshClock) {
  // After a busy period the virtual clock resets; a later lone flow takes
  // exactly ceil(size / capacity), wherever the clock stood.
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth{1'000'000'007.0}, 0_us, pool};
  for (int i = 0; i < 5; ++i) link.transfer(Bytes{999'983}, [] {});
  std::int64_t done = -1;
  e.schedule_at(1000_ms, [&] { link.transfer(Bytes{7'777'777}, [&] { done = e.now().ns(); }); });
  e.run();
  // 7'777'777e9 / 1'000'000'007 = 7'777'776.9455... ns → 7'777'777.
  EXPECT_EQ(done, 1'000'000'000 + 7'777'777);
}

TEST(FairShareChannelExact, SingleDrainsBetweenTiedPairs) {
  // 1e9 B/s = 1 B/ns. A, B (1000 B) and C (3000 B) at t=0: A and B tie and
  // drain at 3 µs; C finishes alone at 5 µs. At 6 µs D, E (500 B) and F
  // (100 B): F drains alone at 6.3 µs, then D and E together at 7.1 µs.
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth{1e9}, 0_us, pool};
  std::vector<std::pair<char, std::int64_t>> got;
  const auto send = [&](char name, std::uint64_t size) {
    link.transfer(Bytes{size}, [&got, &e, name] { got.emplace_back(name, e.now().ns()); });
  };
  send('A', 1000);
  send('B', 1000);
  send('C', 3000);
  e.schedule_at(6_us, [&] {
    send('D', 500);
    send('E', 500);
    send('F', 100);
  });
  e.run();
  const std::vector<std::pair<char, std::int64_t>> want = {
      {'A', 3000}, {'B', 3000}, {'C', 5000}, {'F', 6300}, {'D', 7100}, {'E', 7100}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(link.bytes_moved(), Bytes{6100});
}

// ------------------------------------------------------------------ guards

TEST(FairShareChannelGuards, CapacityBelowOneBytePerSecondThrows) {
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  EXPECT_THROW(FairShareChannel(e, Bandwidth{0.0}, 0_us, pool), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{0.49}, 0_us, pool), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{-5.0}, 0_us, pool), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{std::nan("")}, 0_us, pool), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{1e19}, 0_us, pool), std::invalid_argument);
  EXPECT_EQ(FairShareChannel::whole_rate(Bandwidth{0.5}), 1u);
  EXPECT_EQ(FairShareChannel::whole_rate(Bandwidth::from_gib_per_sec(10.0)), 10'737'418'240u);
}

TEST(FairShareChannelGuards, SizeThatCannotDrainWithinSimTimeThrows) {
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel slow{e, Bandwidth{1.0}, 0_us, pool};
  // At 1 B/s every byte is 1e9 ns: 2^34 B would need ~1.7e19 ns > 2^63.
  EXPECT_THROW(slow.transfer(Bytes{std::uint64_t{1} << 34}, [] {}), std::overflow_error);
  FairShareChannel fast{e, Bandwidth::from_gib_per_sec(10.0), 0_us, pool};
  // The largest 64-bit size still fits: its work is 128-bit, and at 10 GiB/s
  // it drains in ~1.7e18 ns.
  EXPECT_NO_THROW(fast.transfer(Bytes{std::numeric_limits<std::uint64_t>::max()}, [] {}));
}

TEST(FairShareChannelGuards, SharedCompletionPastEndOfTimeThrows) {
  // Each 6e9 B flow alone drains in 6e18 ns at 1 B/s; two sharing the link
  // would need 1.2e19 ns, past SimTime's 2^63 ns.
  sim::Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel slow{e, Bandwidth{1.0}, 0_us, pool};
  slow.transfer(Bytes{6'000'000'000}, [] {});
  slow.transfer(Bytes{6'000'000'000}, [] {});
  EXPECT_THROW(e.run(), std::overflow_error);
}

// ------------------------------------------------------------------ fabric

/// One message of a fabric storm. Entries past the storm's arrivals are
/// follow-ups, sent from the on_delivered of the message that names them.
struct FabricMessage {
  std::int64_t at_ns = 0;
  net::EndpointId src = 0;
  net::EndpointId dst = 0;
  Bytes size = Bytes::zero();
  std::size_t follow = kNoFollow;
  static constexpr std::size_t kNoFollow = ~std::size_t{0};
};

struct FabricCase {
  const char* name;
  std::uint64_t seed;
  std::size_t arrivals;
  std::uint32_t endpoints;
  std::int64_t mean_gap_ns;  ///< mean spacing of arrivals (bursts share an ns)
  unsigned zero_pct;         ///< share of latency-only (zero-size) messages
  unsigned follow_pct;       ///< share of deliveries that send a follow-up
  bool brownout;             ///< overlapping brownouts across the storm
};

/// Names the case in ctest test names (…/bursty) instead of gtest's byte
/// dump of the struct, whose pointer changes on every build.
void PrintTo(const FabricCase& c, std::ostream* os) { *os << c.name; }

std::vector<FabricMessage> make_fabric_storm(const FabricCase& c) {
  std::mt19937_64 rng{c.seed};
  const auto draw = [&](net::EndpointId src, net::EndpointId dst) {
    FabricMessage m;
    m.src = src;
    m.dst = dst;
    if (rng() % 100 >= c.zero_pct) {
      const unsigned shift = static_cast<unsigned>(rng() % 19);  // up to 512 KiB
      m.size = Bytes{(std::uint64_t{1} << shift) + rng() % (std::uint64_t{1} << shift)};
    }
    return m;
  };
  std::vector<FabricMessage> storm;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < c.arrivals; ++i) {
    if (rng() % 4 != 0) {
      t += static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(2 * c.mean_gap_ns + 1));
    }
    const auto src = static_cast<net::EndpointId>(rng() % c.endpoints);
    const auto dst = static_cast<net::EndpointId>(rng() % c.endpoints);
    storm.push_back(draw(src, dst));
    storm.back().at_ns = t;
  }
  // Follow-ups reply to the sender and may chain, up to one per arrival.
  for (std::size_t i = 0; i < storm.size() && storm.size() < 2 * c.arrivals; ++i) {
    if (rng() % 100 >= c.follow_pct) continue;
    storm[i].follow = storm.size();
    storm.push_back(draw(storm[i].dst, storm[i].src));
  }
  return storm;
}

net::FabricConfig storm_fabric_config() {
  net::FabricConfig config;
  config.endpoint_bandwidth = Bandwidth::from_gib_per_sec(10.0);
  config.endpoint_latency = 1_us;
  config.core_links = 4.0;
  config.core_latency = 2_us;
  return config;
}

/// Brownouts over the first part of a storm: two overlapping, one below 1.
fault::Timeline storm_brownouts(bool active) {
  if (!active) return {};
  fault::FaultPlan plan;
  plan.fabric_brownout(fault::ComponentKind::kComputeFabric, 100_us, 3_ms, 2.5)
      .fabric_brownout(fault::ComponentKind::kComputeFabric, 1_ms, 5_ms, 1.7)
      .fabric_brownout(fault::ComponentKind::kComputeFabric, 8_ms, 9_ms, 0.6);
  return fault::Timeline{plan.events};
}

template <class Fab>
std::vector<Completion> run_fabric_storm(const FabricCase& c,
                                         const std::vector<FabricMessage>& storm) {
  sim::Engine engine;
  Fab fabric{engine, storm_fabric_config(), c.endpoints};
  const fault::Timeline timeline = storm_brownouts(c.brownout);
  fabric.set_fault_timeline(&timeline, {fault::ComponentKind::kComputeFabric, 0});
  std::vector<Completion> done;
  done.reserve(storm.size());
  std::function<void(std::size_t)> send = [&](std::size_t i) {
    fabric.send(storm[i].src, storm[i].dst, storm[i].size, [&, i] {
      done.push_back(Completion{i, engine.now().ns()});
      if (storm[i].follow != FabricMessage::kNoFollow) send(storm[i].follow);
    });
  };
  for (std::size_t i = 0; i < c.arrivals; ++i) {
    engine.schedule_at(SimTime::from_ns(storm[i].at_ns), [&, i] { send(i); });
  }
  engine.run();
  engine.assert_drained();
  if constexpr (std::is_same_v<Fab, net::Fabric>) {
    EXPECT_EQ(fabric.live_message_records(), 0u);
    EXPECT_EQ(fabric.stats().messages, storm.size());
  }
  return done;
}

class FabricDifferential : public ::testing::TestWithParam<FabricCase> {};

TEST_P(FabricDifferential, DeliversLikeTheNestedLambdaFabric) {
  const FabricCase& c = GetParam();
  const auto storm = make_fabric_storm(c);
  const auto fast = run_fabric_storm<net::Fabric>(c, storm);
  const auto ref = run_fabric_storm<ReferenceFabric>(c, storm);
  ASSERT_EQ(fast.size(), storm.size());
  ASSERT_EQ(fast, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, FabricDifferential,
    ::testing::Values(
        // name, seed, arrivals, endpoints, mean gap, zero %, follow %, brownout
        FabricCase{"bursty", 1, 3000, 8, 2000, 0, 0, false},
        FabricCase{"reentrant", 2, 3000, 8, 2000, 0, 60, false},
        FabricCase{"zero_size", 3, 3000, 4, 1000, 40, 30, false},
        FabricCase{"brownout", 4, 4000, 16, 2000, 10, 20, true},
        FabricCase{"pool_reuse_100k", 5, 100'000, 32, 4000, 5, 10, true}));

// -------------------------------------------------------- allocation-free

TEST(FabricAllocation, SteadyStateStormAllocatesNothing) {
  // A warm-up storm sizes every pool, heap and engine slot; an identical
  // second storm through the same Fabric must then allocate nothing. Every
  // callback is 16 bytes (two pointers), within std::function's local buffer.
  const FabricCase c{"alloc", 9, 4000, 16, 1500, 10, 30, false};
  const auto storm = make_fabric_storm(c);
  sim::Engine engine;
  net::Fabric fabric{engine, storm_fabric_config(), c.endpoints};
  struct Ctx {
    net::Fabric* fabric;
    const std::vector<FabricMessage>* storm;
    std::size_t delivered = 0;
    void send(const FabricMessage& m) {
      const auto on_delivered = [this, &m] {
        ++delivered;
        if (m.follow != FabricMessage::kNoFollow) send((*storm)[m.follow]);
      };
      static_assert(sizeof(on_delivered) == 16);
      fabric->send(m.src, m.dst, m.size, on_delivered);
    }
  } ctx{&fabric, &storm};
  const auto run_storm_once = [&] {
    const SimTime t0 = engine.now();
    for (std::size_t i = 0; i < c.arrivals; ++i) {
      const FabricMessage& m = storm[i];
      engine.schedule_at(t0 + SimTime::from_ns(m.at_ns), [&ctx, &m] { ctx.send(m); });
    }
    engine.run();
  };
  run_storm_once();
  ASSERT_EQ(ctx.delivered, storm.size());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run_storm_once();
  const std::uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(ctx.delivered, 2 * storm.size());
  EXPECT_EQ(allocations, 0u) << "over " << storm.size() << " messages";
  EXPECT_EQ(fabric.live_message_records(), 0u);
  engine.assert_drained();
}

TEST(FabricAllocation, CounterSeesAllocations) {
  // The counter is live: a message whose callback is too big for
  // std::function's local buffer allocates once to store it.
  sim::Engine engine;
  net::Fabric fabric{engine, storm_fabric_config(), 2};
  std::array<std::uint64_t, 4> big{};
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fabric.send(0, 1, 1_MiB, [&big, pad = big] { big[0] = pad[0] + 1; });
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
  engine.run();
  EXPECT_EQ(big[0], 1u);
}

// ------------------------------------------------------------ fabric guards

TEST(FabricGuards, BrownoutSizePast64BitsThrowsAndChangesNothing) {
  sim::Engine e;
  net::Fabric fabric{e, storm_fabric_config(), 2};
  fault::FaultPlan plan;
  plan.fabric_brownout(fault::ComponentKind::kComputeFabric, 0_us, 1_ms, 8.0);
  const fault::Timeline timeline{plan.events};
  fabric.set_fault_timeline(&timeline, {fault::ComponentKind::kComputeFabric, 0});
  // 2^62 B at 8x is 2^65 B on the wire.
  EXPECT_THROW(fabric.send(0, 1, Bytes{std::uint64_t{1} << 62}, [] {}), std::overflow_error);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.stats().bytes, Bytes::zero());
  EXPECT_EQ(fabric.stats().degraded_messages, 0u);
  EXPECT_EQ(fabric.live_message_records(), 0u);
  // The largest size that still fits is accepted and counted.
  bool delivered = false;
  fabric.send(0, 1, Bytes{std::uint64_t{1} << 58}, [&] { delivered = true; });
  EXPECT_EQ(fabric.stats().messages, 1u);
  EXPECT_EQ(fabric.stats().degraded_messages, 1u);
  EXPECT_EQ(fabric.live_message_records(), 1u);
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.live_message_records(), 0u);
}

TEST(FabricGuards, InfiniteComposedFactorThrowsAndChangesNothing) {
  // Each factor is finite, but overlapping brownouts multiply to infinity.
  sim::Engine e;
  net::Fabric fabric{e, storm_fabric_config(), 2};
  fault::FaultPlan plan;
  plan.fabric_brownout(fault::ComponentKind::kComputeFabric, 0_us, 1_ms, 1e200)
      .fabric_brownout(fault::ComponentKind::kComputeFabric, 0_us, 1_ms, 1e200);
  const fault::Timeline timeline{plan.events};
  fabric.set_fault_timeline(&timeline, {fault::ComponentKind::kComputeFabric, 0});
  EXPECT_THROW(fabric.send(0, 1, Bytes{1}, [] {}), std::overflow_error);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.stats().degraded_messages, 0u);
  EXPECT_EQ(fabric.live_message_records(), 0u);
  // 0 B times an infinite factor has no size either.
  EXPECT_THROW(fabric.send(0, 1, Bytes::zero(), [] {}), std::overflow_error);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.live_message_records(), 0u);
  // Once the brownouts end, sends go through.
  bool delivered = false;
  e.schedule_at(1_ms, [&] { fabric.send(0, 1, Bytes{1}, [&] { delivered = true; }); });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.stats().messages, 1u);
  EXPECT_EQ(fabric.stats().degraded_messages, 0u);
  EXPECT_EQ(fabric.live_message_records(), 0u);
}

TEST(FabricGuards, StageThatCannotDrainThrowsAndChangesNothing) {
  // At 1 B/s a 2^34 B message cannot drain within SimTime: the injection
  // link rejects it, and the send leaves no trace.
  sim::Engine e;
  net::FabricConfig config;
  config.endpoint_bandwidth = Bandwidth{1.0};
  net::Fabric fabric{e, config, 2};
  EXPECT_THROW(fabric.send(0, 1, Bytes{std::uint64_t{1} << 34}, [] {}), std::overflow_error);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.stats().bytes, Bytes::zero());
  EXPECT_EQ(fabric.live_message_records(), 0u);
  EXPECT_THROW(fabric.send(0, 2, Bytes{1}, [] {}), std::out_of_range);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(FabricGuards, SlowCoreRejectsAtSendAndChangesNothing) {
  // With core_links = 0.5 the core (1 B/s) is slower than the 2 B/s
  // endpoint links. 1.2e10 B drains on an endpoint link within SimTime
  // (6e18 ns) but not on the core (1.2e19 ns): the send must fail at once,
  // not from inside the injection link's completion, which would strand
  // the message's record.
  sim::Engine e;
  net::FabricConfig config;
  config.endpoint_bandwidth = Bandwidth{2.0};
  config.core_links = 0.5;
  net::Fabric fabric{e, config, 2};
  EXPECT_THROW(fabric.send(0, 1, Bytes{12'000'000'000}, [] {}), std::overflow_error);
  EXPECT_EQ(fabric.stats().messages, 0u);
  EXPECT_EQ(fabric.stats().bytes, Bytes::zero());
  EXPECT_EQ(fabric.live_message_records(), 0u);
  EXPECT_EQ(e.events_pending(), 0u);
  // A size every stage can drain goes through and leaves no record.
  bool delivered = false;
  fabric.send(0, 1, Bytes{1000}, [&] { delivered = true; });
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(fabric.stats().messages, 1u);
  EXPECT_EQ(fabric.live_message_records(), 0u);
}

}  // namespace
}  // namespace pio
