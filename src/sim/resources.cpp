#include "sim/resources.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/check.hpp"

namespace pio::sim {

// ---------------------------------------------------------------- FifoServer

FifoServer::FifoServer(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

void FifoServer::submit(SimTime service_time, std::function<void()> on_done) {
  submit(service_time, std::move(on_done), nullptr);
}

void FifoServer::submit(SimTime service_time, std::function<void()> on_done,
                        std::function<void()> on_shed) {
  if (service_time < SimTime::zero()) {
    throw std::invalid_argument("FifoServer::submit: negative service time");
  }
  queue_.push_back(Job{service_time, engine_.now(), std::move(on_done), std::move(on_shed)});
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth());
  if (!busy_) start_next();
}

void FifoServer::start_next() {
  // CoDel-style head drop: a sheddable job whose queueing delay already
  // exceeds the target is not worth serving — by the time it completes the
  // client has timed out and retried, so serving it is pure goodput loss.
  while (!queue_.empty() && shed_target_ > SimTime::zero() && queue_.front().on_shed &&
         engine_.now() - queue_.front().enqueued > shed_target_) {
    Job shed = std::move(queue_.front());
    queue_.pop_front();
    const SimTime sojourn = engine_.now() - shed.enqueued;
    ++stats_.shed_jobs;
    stats_.sojourn_us.add(static_cast<std::uint64_t>(sojourn.ns() / 1000));
    engine_.schedule_after(SimTime::zero(), [notify = std::move(shed.on_shed)]() mutable {
      if (notify) notify();
    });
  }
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Job job = std::move(queue_.front());
  queue_.pop_front();
  const SimTime wait = engine_.now() - job.enqueued;
  stats_.total_wait += wait;
  stats_.sojourn_us.add(static_cast<std::uint64_t>(wait.ns() / 1000));
  stats_.busy_time += job.service;
  engine_.schedule_after(job.service, [this, done = std::move(job.on_done)]() mutable {
    ++stats_.jobs_completed;
    if (done) done();
    start_next();
  });
}

// --------------------------------------------------------- FairShareChannel

namespace {

using Work = FairShareChannel::Work;

constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();

// Every 64-bit size fits in Work, and so does every tag: V grows by at most
// rate (< 2^63) per ns over at most 2^63 ns of simulated time. A head's owed
// work, (tag − V)·n, is at most one flow's work (< 2^96) times n (< 2^32).
static_assert(Work{std::numeric_limits<std::uint64_t>::max()} * FairShareChannel::kWorkPerByte <
              Work{1} << 96);

Work work_of(Bytes size) { return Work{size.count()} * FairShareChannel::kWorkPerByte; }

}  // namespace

std::uint64_t FairShareChannel::whole_rate(Bandwidth capacity) {
  const double bps = capacity.bytes_per_sec();
  // Negated comparisons so NaN is rejected too.
  if (!(bps >= 0.5)) {
    throw std::invalid_argument("FairShareChannel: capacity rounds to less than 1 B/s");
  }
  if (!(bps < 0x1p63)) throw std::invalid_argument("FairShareChannel: capacity above 2^63 B/s");
  return static_cast<std::uint64_t>(std::llround(bps));
}

FairShareChannel::FairShareChannel(Engine& engine, Bandwidth capacity, SimTime latency,
                                   std::string name)
    : engine_(engine),
      capacity_(capacity),
      rate_(whole_rate(capacity)),
      latency_(latency),
      name_(std::move(name)) {
  if (latency < SimTime::zero()) {
    throw std::invalid_argument("FairShareChannel: negative latency");
  }
}

void FairShareChannel::transfer(Bytes size, std::function<void()> on_done) {
  if (size == Bytes::zero()) {
    // Latency-only message (e.g. a metadata RPC header).
    engine_.schedule_after(latency_, std::move(on_done));
    return;
  }
  if (work_of(size) >= Work{rate_} * static_cast<std::uint64_t>(kMaxNs)) {
    throw std::overflow_error("FairShareChannel::transfer: " + std::to_string(size.count()) +
                              " B drains past the end of simulated time");
  }
  engine_.schedule_after(latency_, [this, size, done = std::move(on_done)]() mutable {
    admit(size, std::move(done));
  });
}

void FairShareChannel::admit(Bytes size, std::function<void()> on_done) {
  advance_progress();
  flows_.emplace(FlowKey{vtime_ + work_of(size), next_seq_++}, Flow{size, std::move(on_done)});
  reschedule_completion();
}

void FairShareChannel::advance_progress() {
  const SimTime now = engine_.now();
  if (!flows_.empty()) {
    // Each active flow receives rate·dt/n work; the floor's remainder rides
    // along in carry_ instead of being dropped.
    const Work service =
        Work{rate_} * static_cast<std::uint64_t>((now - last_progress_).ns()) + carry_;
    const std::uint64_t n = flows_.size();
    const Work step = service / n;
    vtime_ += step;
    carry_ = service - step * n;
  }
  last_progress_ = now;
}

void FairShareChannel::reschedule_completion() {
  if (pending_completion_ != 0) {
    engine_.cancel(pending_completion_);
    pending_completion_ = 0;
  }
  if (flows_.empty()) return;
  // The head drains once rate·delay + carry reaches (tag − V)·n: the first
  // such nanosecond, exactly. An admit at the head's completion instant runs
  // before its completion event and finds it already drained: delay 0.
  const Work head = flows_.begin()->first.tag;
  const Work owed = head > vtime_ ? (head - vtime_) * flows_.size() : 0;
  const Work delay = owed > carry_ ? (owed - carry_ + rate_ - 1) / rate_ : 0;
  if (delay > static_cast<Work>(kMaxNs - engine_.now().ns())) {
    throw std::overflow_error("FairShareChannel " + name_ +
                              ": completion lies past the end of simulated time");
  }
  pending_completion_ =
      engine_.schedule_after(SimTime::from_ns(static_cast<std::int64_t>(delay)), [this] {
        pending_completion_ = 0;
        complete_earliest();
      });
}

void FairShareChannel::complete_earliest() {
  advance_progress();
  // Complete every flow that has drained: a prefix of the (tag, seq) order.
  // Ties complete together, in admission order for determinism.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> done;
  auto drained_end = flows_.begin();
  for (; drained_end != flows_.end() && drained_end->first.tag <= vtime_; ++drained_end) {
    bytes_moved_ += drained_end->second.size;
    done.emplace_back(drained_end->first.seq, std::move(drained_end->second.on_done));
  }
  flows_.erase(flows_.begin(), drained_end);
  // The completion was timed to the head's exact drain instant.
  check::that(!done.empty(), "fair-share completion drains a flow", name_);
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (flows_.empty()) {
    vtime_ = 0;
    carry_ = 0;
  }
  reschedule_completion();
  for (auto& [seq, on_done] : done) {
    if (on_done) on_done();
  }
}

// ------------------------------------------------------------------ TokenPool

TokenPool::TokenPool(Engine& engine, std::uint64_t tokens, std::string name)
    : engine_(engine), capacity_(tokens), available_(tokens), name_(std::move(name)) {
  if (tokens == 0) throw std::invalid_argument("TokenPool: zero capacity");
}

void TokenPool::acquire(std::uint64_t n, std::function<void()> on_grant) {
  if (n == 0 || n > capacity_) throw std::invalid_argument("TokenPool::acquire: bad count");
  waiters_.push_back(Waiter{n, std::move(on_grant)});
  drain();
}

void TokenPool::release(std::uint64_t n) {
  available_ += n;
  if (available_ > capacity_) throw std::logic_error("TokenPool::release: over-release");
  drain();
}

void TokenPool::drain() {
  // FIFO: strictly grant in arrival order; a large request at the head
  // blocks later small ones (no starvation).
  while (!waiters_.empty() && waiters_.front().n <= available_) {
    Waiter w = std::move(waiters_.front());
    waiters_.pop_front();
    available_ -= w.n;
    if (w.on_grant) w.on_grant();
  }
}

}  // namespace pio::sim
