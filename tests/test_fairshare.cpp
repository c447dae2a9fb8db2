// pio::sim::FairShareChannel in virtual time (DESIGN.md §17).
//
// The channel keeps one virtual clock and a map of finish tags so each admit
// or completion is O(log n). Two reference models live here, test-only:
//
//  - ListChannel: the original O(n) design — a list of flows, every one
//    walked on each admit and completion — but with the channel's exact
//    integer arithmetic. The two must agree to the nanosecond and in
//    completion order on any arrival storm; that is the differential test.
//  - DoubleChannel: the original design as it was, `double` bytes and a
//    0.5-byte "drained" threshold. Its completions may differ by a bounded
//    drift; the drift test pins that bound.
//
// piolint: allow-file(C2) — every capture-by-reference handler below is
// drained by an engine run inside the same scope.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <list>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/resources.hpp"

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

template <class Channel>
std::vector<Completion> run_storm(const std::vector<Arrival>& storm, Bandwidth capacity,
                                  SimTime latency) {
  sim::Engine engine;
  Channel link{engine, capacity, latency};
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

// --------------------------------------------------------- exact arithmetic

TEST(FairShareChannelExact, SingleFlowTakesCeilOfWorkOverRate) {
  sim::Engine e;
  FairShareChannel link{e, Bandwidth{3.0}, 0_us};
  std::int64_t done = -1;
  link.transfer(Bytes{10}, [&] { done = e.now().ns(); });
  e.run();
  EXPECT_EQ(done, 3'333'333'334);  // 10 B at 3 B/s, rounded up to the ns
}

TEST(FairShareChannelExact, EqualTagsCompleteTogetherInAdmissionOrder) {
  // A (2 MB) runs alone for 1 ms at 1 GB/s, so it has 1 MB left when B
  // (1 MB) arrives: equal finish tags. Both drain at 3 ms in one event.
  sim::Engine e;
  FairShareChannel link{e, Bandwidth{1e9}, 0_us};
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
  FairShareChannel link{e, Bandwidth{10.0}, 0_us};
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
  FairShareChannel link{e, Bandwidth{1'000'000'007.0}, 0_us};
  for (int i = 0; i < 5; ++i) link.transfer(Bytes{999'983}, [] {});
  std::int64_t done = -1;
  e.schedule_at(1000_ms, [&] { link.transfer(Bytes{7'777'777}, [&] { done = e.now().ns(); }); });
  e.run();
  // 7'777'777e9 / 1'000'000'007 = 7'777'776.9455... ns → 7'777'777.
  EXPECT_EQ(done, 1'000'000'000 + 7'777'777);
}

// ------------------------------------------------------------------ guards

TEST(FairShareChannelGuards, CapacityBelowOneBytePerSecondThrows) {
  sim::Engine e;
  EXPECT_THROW(FairShareChannel(e, Bandwidth{0.0}, 0_us), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{0.49}, 0_us), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{-5.0}, 0_us), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{std::nan("")}, 0_us), std::invalid_argument);
  EXPECT_THROW(FairShareChannel(e, Bandwidth{1e19}, 0_us), std::invalid_argument);
  EXPECT_EQ(FairShareChannel::whole_rate(Bandwidth{0.5}), 1u);
  EXPECT_EQ(FairShareChannel::whole_rate(Bandwidth::from_gib_per_sec(10.0)), 10'737'418'240u);
}

TEST(FairShareChannelGuards, SizeThatCannotDrainWithinSimTimeThrows) {
  sim::Engine e;
  FairShareChannel slow{e, Bandwidth{1.0}, 0_us};
  // At 1 B/s every byte is 1e9 ns: 2^34 B would need ~1.7e19 ns > 2^63.
  EXPECT_THROW(slow.transfer(Bytes{std::uint64_t{1} << 34}, [] {}), std::overflow_error);
  FairShareChannel fast{e, Bandwidth::from_gib_per_sec(10.0), 0_us};
  // The largest 64-bit size still fits: its work is 128-bit, and at 10 GiB/s
  // it drains in ~1.7e18 ns.
  EXPECT_NO_THROW(fast.transfer(Bytes{std::numeric_limits<std::uint64_t>::max()}, [] {}));
}

TEST(FairShareChannelGuards, SharedCompletionPastEndOfTimeThrows) {
  // Each 6e9 B flow alone drains in 6e18 ns at 1 B/s; two sharing the link
  // would need 1.2e19 ns, past SimTime's 2^63 ns.
  sim::Engine e;
  FairShareChannel slow{e, Bandwidth{1.0}, 0_us};
  slow.transfer(Bytes{6'000'000'000}, [] {});
  slow.transfer(Bytes{6'000'000'000}, [] {});
  EXPECT_THROW(e.run(), std::overflow_error);
}

}  // namespace
}  // namespace pio
