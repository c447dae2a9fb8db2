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
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

/// Free-list slab of records addressed by a 32-bit index. A claim reuses the
/// most recently released index before the slab grows, so its capacity
/// tracks the peak number of live records, and a release never allocates.
/// Records move when the slab grows: hold indices, not references, across a
/// claim.
template <class T>
class SlotPool {
 public:
  /// Construct a record from `args` (one move of each argument) and return
  /// its index.
  template <class... Args>
  [[nodiscard]] std::uint32_t claim(Args&&... args) {
    static_assert(std::is_nothrow_constructible_v<T, Args&&...>);
    if (free_.empty()) {
      if (slots_.size() > std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("SlotPool: more than 2^32 live records");
      }
      slots_.emplace_back(std::forward<Args>(args)...);
      free_.reserve(slots_.capacity());
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    T* record = &slots_[index];
    std::destroy_at(record);
    std::construct_at(record, std::forward<Args>(args)...);
    return index;
  }

  /// Return `index` for reuse. The record is left as it is (callers move
  /// its payload out first) and destroyed at its next claim.
  void release(std::uint32_t index) noexcept { free_.push_back(index); }

  [[nodiscard]] T& operator[](std::uint32_t index) { return slots_[index]; }
  [[nodiscard]] std::size_t live() const { return slots_.size() - free_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;  ///< capacity kept >= slots_.capacity()
};

/// Fluid-model fair-sharing channel: `n` concurrent flows each progress at
/// capacity/n. Propagation latency is applied once at flow admission. This is
/// the standard processor-sharing approximation used by CODES-class network
/// models.
///
/// Implemented in virtual time (DESIGN.md §17): one channel-global clock V
/// advances at capacity/n, a flow admitted at V_admit drains when V reaches
/// its finish tag V_admit + size, and flows sit in a 4-ary min-heap of keys
/// ordered by (tag, admission seq) — each admit or completion is O(log n).
/// All accounting is exact integer arithmetic in `Work` units, so the
/// completion instant of every flow is the first nanosecond at which it has
/// drained. A flow's size and callback live in a pooled record from
/// `transfer` to completion; channels may share one pool (net::Fabric does).
class FairShareChannel {
 public:
  /// Work in units of 1e-9 byte: a whole B/s rate times a duration in ns is
  /// work, with no rounding. 128 bits hold every 64-bit size times
  /// kWorkPerByte, and V stays below rate × 2^63 ns.
  __extension__ using Work = unsigned __int128;
  static constexpr std::uint64_t kWorkPerByte = 1'000'000'000;

  /// One flow, from `transfer` until its callback fires.
  struct Flow {
    Bytes size;
    std::function<void()> on_done;
  };
  /// A drained flow waiting to fire.
  struct Drained {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Flow records, and the scratch a completion sorts drained flows in.
  /// Channels sharing a pool share both, so retained memory tracks their
  /// combined peak. One scratch serves them all: engine events never nest,
  /// so a batch has fired before any other completion runs.
  struct FlowPool {
    SlotPool<Flow> records;
    std::vector<Drained> drained;
  };

  /// `capacity` rounded to whole B/s, the channel's integer rate. Throws
  /// std::invalid_argument when it rounds below 1 B/s or exceeds 2^63 B/s.
  [[nodiscard]] static std::uint64_t whole_rate(Bandwidth capacity);

  /// Flow records live in `pool` (not owned; it must outlive the channel's
  /// flows and may be shared with other channels).
  FairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency, FlowPool& pool,
                   std::string name = "link");

  FairShareChannel(const FairShareChannel&) = delete;
  FairShareChannel& operator=(const FairShareChannel&) = delete;

  /// Start a transfer of `size`; `on_done` fires when the last byte drains.
  /// Throws std::overflow_error if draining `size` alone at full capacity
  /// would take longer than SimTime can represent.
  void transfer(Bytes size, std::function<void()> on_done);

  /// Throw the std::overflow_error `transfer` would for `size`, if any.
  void check_drainable(Bytes size) const;

  [[nodiscard]] std::size_t active_flows() const { return heap_.size(); }
  [[nodiscard]] Bytes bytes_moved() const { return bytes_moved_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return capacity_; }

 private:
  /// Heap key of an admitted flow; the heap orders on (tag, seq).
  struct FlowKey {
    Work tag;
    std::uint64_t seq;
    std::uint32_t slot;  ///< the flow's record in the pool
  };
  static bool before(const FlowKey& a, const FlowKey& b) {
    return a.tag != b.tag ? a.tag < b.tag : a.seq < b.seq;
  }

  void admit(std::uint32_t slot);
  void advance_progress();
  void reschedule_completion();
  void complete_earliest();
  /// Pop the heap's head, counting its bytes as moved.
  FlowKey pop_head();
  /// Move a flow's callback out of its record and release the record.
  std::function<void()> take(std::uint32_t slot);

  Engine& engine_;
  Bandwidth capacity_;
  std::uint64_t rate_;  ///< capacity in whole B/s = work per ns at n = 1
  SimTime latency_;
  std::string name_;
  FlowPool& pool_;
  std::vector<FlowKey> heap_;  ///< 4-ary min-heap of admitted flows
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
