// PIOEval simulation substrate: queueing building blocks.
//
// Three primitives cover every server in the storage/network models:
//  - FifoServer: a single server with explicit service times (disks, MDS ops)
//  - FairShareChannel: a fluid processor-sharing link (network fabrics)
//  - TokenPool: counting semaphore in simulated time (server thread limits)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/histogram.hpp"
#include "common/types.hpp"
#include "sim/engine.hpp"

namespace pio::sim {

/// Aggregate occupancy statistics shared by the queueing primitives.
struct ServerStats {
  std::uint64_t jobs_completed = 0;
  SimTime busy_time = SimTime::zero();   ///< time with >= 1 job in service
  SimTime total_wait = SimTime::zero();  ///< queueing delay, excludes service
  std::uint64_t max_queue_depth = 0;
  std::uint64_t shed_jobs = 0;  ///< jobs dropped at dequeue (sojourn > target)
  /// Queueing-delay distribution in microseconds, recorded at dequeue for
  /// served and shed jobs alike (the CoDel view of the queue).
  Log2Histogram sojourn_us;

  [[nodiscard]] SimTime mean_wait() const {
    return jobs_completed == 0 ? SimTime::zero()
                               : total_wait / static_cast<std::int64_t>(jobs_completed);
  }
  [[nodiscard]] double utilization(SimTime horizon) const {
    return horizon <= SimTime::zero() ? 0.0 : busy_time.sec() / horizon.sec();
  }
};

/// Single-server FIFO queue. Service time is supplied per job so callers can
/// model state-dependent costs (e.g. disk seek depends on previous offset).
class FifoServer {
 public:
  explicit FifoServer(Engine& engine, std::string name = "fifo");

  /// Enqueue a job; `on_done` fires when its service completes.
  void submit(SimTime service_time, std::function<void()> on_done);

  /// Enqueue a sheddable job: if a shed target is set and the job's queueing
  /// delay exceeds it when the job reaches the head, the job is dropped
  /// without service and `on_shed` fires (next delta) instead of `on_done`.
  /// Jobs submitted without an `on_shed` are never shed.
  void submit(SimTime service_time, std::function<void()> on_done,
              std::function<void()> on_shed);

  /// CoDel-style sojourn bound for sheddable jobs; zero (default) disables.
  void set_shed_target(SimTime target) { shed_target_ = target; }

  [[nodiscard]] std::uint64_t queue_depth() const { return queue_.size() + (busy_ ? 1u : 0u); }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Job {
    SimTime service;
    SimTime enqueued;
    std::function<void()> on_done;
    std::function<void()> on_shed;
  };

  void start_next();

  Engine& engine_;
  std::string name_;
  std::deque<Job> queue_;
  bool busy_ = false;
  SimTime shed_target_ = SimTime::zero();
  ServerStats stats_;
};

/// Fluid-model fair-sharing channel: `n` concurrent flows each progress at
/// capacity/n. Propagation latency is applied once at flow admission. This is
/// the standard processor-sharing approximation used by CODES-class network
/// models.
///
/// Implemented in virtual time (DESIGN.md §17): one channel-global clock V
/// advances at capacity/n, a flow admitted at V_admit drains when V reaches
/// its finish tag V_admit + size, and flows sit in a map ordered by
/// (tag, admission seq) — each admit or completion is O(log n). All
/// accounting is exact integer arithmetic in `Work` units, so the completion
/// instant of every flow is the first nanosecond at which it has drained.
class FairShareChannel {
 public:
  /// Work in units of 1e-9 byte: a whole B/s rate times a duration in ns is
  /// work, with no rounding. 128 bits hold every 64-bit size times
  /// kWorkPerByte, and V stays below rate × 2^63 ns.
  __extension__ using Work = unsigned __int128;
  static constexpr std::uint64_t kWorkPerByte = 1'000'000'000;

  /// `capacity` rounded to whole B/s, the channel's integer rate. Throws
  /// std::invalid_argument when it rounds below 1 B/s or exceeds 2^63 B/s.
  [[nodiscard]] static std::uint64_t whole_rate(Bandwidth capacity);

  FairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                   std::string name = "link");

  /// Start a transfer of `size`; `on_done` fires when the last byte drains.
  /// Throws std::overflow_error if draining `size` alone at full capacity
  /// would take longer than SimTime can represent.
  void transfer(Bytes size, std::function<void()> on_done);

  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }

 private:
  /// Map order: finish tag, then admission order.
  struct FlowKey {
    Work tag;
    std::uint64_t seq;
    bool operator<(const FlowKey& other) const {
      return tag != other.tag ? tag < other.tag : seq < other.seq;
    }
  };
  struct Flow {
    Bytes size;
    std::function<void()> on_done;
  };

  void admit(Bytes size, std::function<void()> on_done);
  void advance_progress();
  void reschedule_completion();
  void complete_earliest();

  Engine& engine_;
  Bandwidth capacity_;
  std::uint64_t rate_;  ///< capacity in whole B/s = work per ns at n = 1
  SimTime latency_;
  std::string name_;
  std::map<FlowKey, Flow> flows_;
  Work vtime_ = 0;  ///< V; reset to 0 whenever the channel idles
  /// Remainder of the last V step (a numerator over that step's n), fed
  /// into the next step so no work is lost to the floor.
  Work carry_ = 0;
  std::uint64_t next_seq_ = 0;
  SimTime last_progress_ = SimTime::zero();
  EventId pending_completion_ = 0;
  Bytes bytes_moved_ = Bytes::zero();
};

/// Counting semaphore over simulated time: models bounded server concurrency
/// (e.g. an MDS with k service threads). FIFO grant order.
class TokenPool {
 public:
  TokenPool(Engine& engine, std::uint64_t tokens, std::string name = "tokens");

  /// Request `n` tokens (n <= pool size); `on_grant` fires when granted —
  /// immediately (same event) if available.
  void acquire(std::uint64_t n, std::function<void()> on_grant);

  /// Return `n` tokens, possibly granting queued waiters.
  void release(std::uint64_t n);

  [[nodiscard]] std::uint64_t available() const { return available_; }
  [[nodiscard]] std::uint64_t waiters() const { return waiters_.size(); }

 private:
  struct Waiter {
    std::uint64_t n;
    std::function<void()> on_grant;
  };

  void drain();

  Engine& engine_;
  std::uint64_t capacity_;
  std::uint64_t available_;
  std::string name_;
  std::deque<Waiter> waiters_;
};

}  // namespace pio::sim
