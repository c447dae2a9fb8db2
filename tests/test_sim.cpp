// Unit tests for the discrete-event engine and queueing primitives.
//
// piolint: allow-file(C2) — test bodies schedule against a stack-local
// engine and drain it (run()) in the same scope, so by-reference captures
// cannot outlive their frame; library code gets no such exemption.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resources.hpp"

namespace pio::sim {
namespace {

using namespace pio::literals;

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30_us, [&] { order.push_back(3); });
  e.schedule_at(10_us, [&] { order.push_back(1); });
  e.schedule_at(20_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30_us);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(EngineTest, TiesFireInInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5_us, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EngineTest, SchedulingIntoThePastThrows) {
  Engine e;
  e.schedule_at(10_us, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(5_us, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_after(SimTime::from_ns(-1), [] {}), std::logic_error);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(10_us, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(EngineTest, MassCancellationCompactsAndReleasesCaptures) {
  // Cancellation is lazy, but not unboundedly so: once dead entries
  // outnumber live ones the heap compacts, destroying the cancelled
  // callables. A schedule-far-future-then-cancel pattern must therefore
  // release its captures promptly (only a sub-threshold residue < 64 may
  // linger until it surfaces or the next compaction).
  Engine e;
  auto token = std::make_shared<int>(7);
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(e.schedule_after(SimTime::from_ms(100.0 + i), [token] { (void)*token; }));
  }
  EXPECT_EQ(token.use_count(), 1001);
  for (const EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.events_pending(), 0u);
  EXPECT_LT(token.use_count(), 65) << "compaction should have destroyed cancelled callables";
  e.run();  // drains the residue
  e.assert_drained();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EngineTest, CancellationInterleavedWithExecutionKeepsOrder) {
  // Compaction re-heapifies; the (time, seq) total order must make the pop
  // sequence identical to the purely lazy path.
  Engine e;
  std::vector<int> order;
  std::vector<EventId> cancelled;
  for (int i = 0; i < 300; ++i) {
    const EventId id = e.schedule_at(SimTime::from_us(10.0 + i), [&order, i] {
      order.push_back(i);
    });
    if (i % 3 != 0) cancelled.push_back(id);
  }
  for (const EventId id : cancelled) EXPECT_TRUE(e.cancel(id));
  e.run();
  e.assert_drained();
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t k = 0; k < order.size(); ++k) {
    EXPECT_EQ(order[k], static_cast<int>(k) * 3);
  }
}

TEST(EngineTest, RunUntilStopsAtHorizon) {
  Engine e;
  int count = 0;
  e.schedule_at(10_us, [&] { ++count; });
  e.schedule_at(20_us, [&] { ++count; });
  e.schedule_at(30_us, [&] { ++count; });
  e.run(20_us);
  EXPECT_EQ(count, 2);
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(EngineTest, HandlersCanScheduleMoreEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) e.schedule_after(1_us, recurse);
  };
  e.schedule_after(1_us, recurse);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 100_us);
}

TEST(EngineTest, RngStreamsAreStable) {
  Engine e{1234};
  Rng a = e.rng_stream(5);
  Rng b = e.rng_stream(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(FifoServerTest, SerializesJobs) {
  Engine e;
  FifoServer server{e};
  std::vector<std::int64_t> completions;
  for (int i = 0; i < 3; ++i) {
    server.submit(10_us, [&] { completions.push_back(e.now().ns()); });
  }
  e.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 10'000);
  EXPECT_EQ(completions[1], 20'000);
  EXPECT_EQ(completions[2], 30'000);
  EXPECT_EQ(server.stats().jobs_completed, 3u);
  EXPECT_EQ(server.stats().busy_time, 30_us);
  // Job 2 waited 10us, job 3 waited 20us.
  EXPECT_EQ(server.stats().total_wait, 30_us);
  EXPECT_EQ(server.stats().max_queue_depth, 3u);
}

TEST(FifoServerTest, NegativeServiceTimeThrows) {
  Engine e;
  FifoServer server{e};
  EXPECT_THROW(server.submit(SimTime::from_ns(-5), [] {}), std::invalid_argument);
}

TEST(FairShareChannelTest, SingleFlowTakesSizeOverCapacity) {
  Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us, pool};
  SimTime done = SimTime::zero();
  link.transfer(100_MiB, [&] { done = e.now(); });
  e.run();
  // piolint: allow(T1) — NEAR tolerance literal, not a unit conversion.
  EXPECT_NEAR(done.sec(), 1.0, 1e-6);
  EXPECT_EQ(link.bytes_moved(), 100_MiB);
}

TEST(FairShareChannelTest, TwoEqualFlowsShareBandwidth) {
  Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us, pool};
  std::vector<double> done;
  link.transfer(50_MiB, [&] { done.push_back(e.now().sec()); });
  link.transfer(50_MiB, [&] { done.push_back(e.now().sec()); });
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 MiB/s while both are active; both finish at ~1 s.
  EXPECT_NEAR(done[0], 1.0, 1e-3);
  EXPECT_NEAR(done[1], 1.0, 1e-3);
}

TEST(FairShareChannelTest, LateFlowSlowsEarlyFlow) {
  Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth::from_mib_per_sec(100.0), 0_us, pool};
  double first_done = 0.0;
  double second_done = 0.0;
  link.transfer(100_MiB, [&] { first_done = e.now().sec(); });
  e.schedule_at(SimTime::from_sec(0.5), [&] {
    link.transfer(50_MiB, [&] { second_done = e.now().sec(); });
  });
  e.run();
  // First flow: 50 MiB alone (0.5s), then shares: remaining 50 MiB at
  // 50 MiB/s = 1s more -> 1.5s total. Second: 50 MiB at 50 MiB/s -> also 1.5s.
  EXPECT_NEAR(first_done, 1.5, 1e-3);
  EXPECT_NEAR(second_done, 1.5, 1e-3);
}

TEST(FairShareChannelTest, LatencyAppliesOnce) {
  Engine e;
  FairShareChannel::FlowPool pool;
  FairShareChannel link{e, Bandwidth::from_gib_per_sec(1.0), 100_us, pool};
  SimTime done = SimTime::zero();
  link.transfer(Bytes::zero(), [&] { done = e.now(); });
  e.run();
  EXPECT_EQ(done, 100_us);
}

TEST(TokenPoolTest, GrantsFifo) {
  Engine e;
  TokenPool pool{e, 2};
  std::vector<int> grants;
  pool.acquire(2, [&] { grants.push_back(1); });
  pool.acquire(1, [&] { grants.push_back(2); });
  pool.acquire(1, [&] { grants.push_back(3); });
  EXPECT_EQ(grants, (std::vector<int>{1}));
  pool.release(2);
  EXPECT_EQ(grants, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pool.available(), 0u);
}

TEST(TokenPoolTest, LargeHeadRequestBlocksSmallerOnes) {
  Engine e;
  TokenPool pool{e, 4};
  std::vector<int> grants;
  pool.acquire(3, [&] { grants.push_back(1); });
  pool.acquire(4, [&] { grants.push_back(2); });  // must wait for all 4
  pool.acquire(1, [&] { grants.push_back(3); });  // FIFO: behind the 4
  EXPECT_EQ(grants, (std::vector<int>{1}));
  pool.release(3);
  EXPECT_EQ(grants, (std::vector<int>{1, 2}));
  pool.release(4);
  EXPECT_EQ(grants, (std::vector<int>{1, 2, 3}));
}

TEST(TokenPoolTest, OverReleaseThrows) {
  Engine e;
  TokenPool pool{e, 2};
  EXPECT_THROW(pool.release(1), std::logic_error);
}

TEST(EngineDeterminismTest, IdenticalRunsProduceIdenticalHistories) {
  auto run_once = [] {
    Engine e{77};
    FifoServer server{e};
    Rng rng = e.rng_stream(1);
    std::vector<std::int64_t> history;
    for (int i = 0; i < 50; ++i) {
      const auto service = SimTime::from_us(rng.uniform(1.0, 100.0));
      e.schedule_at(SimTime::from_us(rng.uniform(0.0, 500.0)), [&, service] {
        server.submit(service, [&] { history.push_back(e.now().ns()); });
      });
    }
    e.run();
    return history;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace pio::sim
