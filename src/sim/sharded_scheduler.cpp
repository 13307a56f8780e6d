#include "sim/sharded_scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/sweep.hpp"

namespace cyd::sim {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint32_t kSeqBits = 28;  // per-shard origin sequence width

// The shard a worker thread is currently executing events for, kNoShard
// outside a round. Thread-local rather than per-scheduler because the check
// it feeds (schedule affinity) is about *this thread's* execution context;
// a worker never interleaves two schedulers' rounds.
thread_local std::uint32_t tls_current_shard = 0xffffffffu;

std::uint64_t channel_key(std::size_t from, std::size_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint32_t>(to);
}

}  // namespace

Duration ShardPlan::lookahead() const {
  Duration min_latency = kUnbounded;
  for (const ShardChannel& c : channels) {
    min_latency = std::min(min_latency, std::max<Duration>(c.latency, 1));
  }
  return min_latency;
}

ShardedScheduler::ShardedScheduler(ShardPlan plan)
    : ShardedScheduler(std::move(plan), Options{}) {}

ShardedScheduler::ShardedScheduler(ShardPlan plan, Options options)
    : plan_(std::move(plan)), options_(options) {
  const std::size_t n = plan_.shard_count();
  if (n == 0) {
    throw std::invalid_argument("ShardedScheduler: plan has no shards");
  }
  if (n > kMaxShards) {
    throw std::invalid_argument(
        "ShardedScheduler: shard count exceeds the 12-bit key budget (" +
        std::to_string(kMaxShards) + ")");
  }
  for (const ShardChannel& c : plan_.channels) {
    if (c.from >= n || c.to >= n) {
      throw std::invalid_argument(
          "ShardedScheduler: channel endpoint names no shard");
    }
    if (c.from == c.to) {
      throw std::invalid_argument(
          "ShardedScheduler: self-channel on shard '" + plan_.labels[c.from] +
          "' — intra-shard work uses schedule(), not send()");
    }
    auto [it, inserted] =
        channel_latency_.emplace(channel_key(c.from, c.to), c.latency);
    if (!inserted) it->second = std::min(it->second, c.latency);
  }
  lookahead_ = plan_.lookahead();
  states_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    states_.push_back(std::make_unique<ShardState>());
  }
  if (options_.mode == Mode::kSingleQueue) {
    // All shards share queue 0; the observer recovers the executing shard
    // from the event's tag and routes the trace into that shard's
    // accumulators, so the checksum layout matches the sharded run's.
    states_[0]->queue.set_execute_observer(&ShardedScheduler::serial_observer,
                                           this);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      states_[i]->queue.set_execute_observer(
          &ShardedScheduler::sharded_observer, states_[i].get());
    }
    runner_ = std::make_unique<SweepRunner>(SweepOptions{options_.workers});
  }
}

ShardedScheduler::~ShardedScheduler() = default;

unsigned ShardedScheduler::workers() const {
  return runner_ ? runner_->workers() : 1u;
}

EventQueue& ShardedScheduler::queue_for(std::size_t shard) {
  return options_.mode == Mode::kSingleQueue ? states_[0]->queue
                                             : states_[shard]->queue;
}

void ShardedScheduler::reserve(std::size_t shard, std::size_t events) {
  if (shard >= states_.size()) {
    throw std::out_of_range("ShardedScheduler::reserve: no such shard");
  }
  queue_for(shard).reserve(events);
}

TimePoint ShardedScheduler::now(std::size_t shard) const {
  if (shard >= states_.size()) {
    throw std::out_of_range("ShardedScheduler::now: no such shard");
  }
  return options_.mode == Mode::kSingleQueue ? states_[0]->queue.now()
                                             : states_[shard]->queue.now();
}

std::uint32_t ShardedScheduler::current_shard() const {
  return options_.mode == Mode::kSharded ? tls_current_shard : serial_current_;
}

void ShardedScheduler::check_affinity(std::size_t shard, const char* what) const {
  const std::uint32_t current = current_shard();
  if (current == kNoShard) return;  // setup code outside any event
  if (current != shard) {
    throw std::logic_error(
        std::string("ShardedScheduler::") + what + ": shard '" +
        plan_.labels[current] + "' touched shard '" + plan_.labels[shard] +
        "' directly — cross-shard work must go through send()");
  }
}

std::uint64_t ShardedScheduler::make_key(std::size_t origin) {
  ShardState& s = *states_[origin];
  if (s.next_seq >= kMaxEventsPerShard) {
    throw std::length_error(
        "ShardedScheduler: shard '" + plan_.labels[origin] +
        "' exhausted its 2^28 origin-sequence space");
  }
  return (static_cast<std::uint64_t>(origin) << kSeqBits) | s.next_seq++;
}

void ShardedScheduler::schedule(std::size_t shard, TimePoint t, EventFn fn) {
  if (shard >= states_.size()) {
    throw std::out_of_range("ShardedScheduler::schedule: no such shard");
  }
  check_affinity(shard, "schedule");
  // Origin == target: from inside an event the affinity check pins the
  // caller to its own shard, and setup code charges the seeded shard — so
  // the per-shard origin counters advance identically in both modes.
  const std::uint64_t key = make_key(shard);
  queue_for(shard).schedule_keyed(t, key, static_cast<std::uint32_t>(shard),
                                  std::move(fn));
}

bool ShardedScheduler::has_channel(std::size_t from, std::size_t to) const {
  return channel_latency_.count(channel_key(from, to)) != 0;
}

Duration ShardedScheduler::channel_latency(std::size_t from,
                                           std::size_t to) const {
  const auto it = channel_latency_.find(channel_key(from, to));
  if (it == channel_latency_.end()) {
    throw std::invalid_argument("ShardedScheduler: no channel " +
                                plan_.labels.at(from) + " -> " +
                                plan_.labels.at(to));
  }
  return it->second;
}

void ShardedScheduler::send(std::size_t from, std::size_t to, Duration extra,
                            EventFn fn) {
  if (from >= states_.size() || to >= states_.size()) {
    throw std::out_of_range("ShardedScheduler::send: no such shard");
  }
  check_affinity(from, "send");
  const Duration latency = channel_latency(from, to);  // throws when absent
  const TimePoint arrival =
      now(from) + std::max<Duration>(latency, 1) + std::max<Duration>(extra, 0);
  const std::uint64_t key = make_key(from);
  ShardState& origin = *states_[from];
  ++origin.sent;
  if (options_.mode == Mode::kSharded && running_) {
    // Mid-round: the target queue belongs to another worker. Park the
    // message in the origin's outbox (origin-thread-private) and let the
    // barrier flush it. Conservative window choice guarantees arrival is
    // beyond the current window, so deferring delivery changes nothing.
    origin.outbox.push_back(
        PendingSend{static_cast<std::uint32_t>(to), arrival, key, std::move(fn)});
  } else {
    queue_for(to).schedule_keyed(arrival, key, static_cast<std::uint32_t>(to),
                                 std::move(fn));
  }
}

void ShardedScheduler::flush_outboxes() {
  for (auto& state : states_) {
    for (PendingSend& p : state->outbox) {
      states_[p.to]->queue.schedule_keyed(p.at, p.key, p.to, std::move(p.fn));
    }
    state->outbox.clear();
  }
}

void ShardedScheduler::accumulate(ShardState& state, TimePoint t,
                                  std::uint64_t key, std::uint32_t tag) {
  const std::uint64_t h =
      derive_seed(derive_seed(static_cast<std::uint64_t>(t), key), tag);
  state.chain = (state.chain ^ h) * kFnvPrime;
  state.unordered += h;
  ++state.executed;
}

void ShardedScheduler::sharded_observer(void* ctx, TimePoint t,
                                        std::uint64_t key, std::uint32_t tag) {
  accumulate(*static_cast<ShardState*>(ctx), t, key, tag);
}

void ShardedScheduler::serial_observer(void* ctx, TimePoint t,
                                       std::uint64_t key, std::uint32_t tag) {
  auto* self = static_cast<ShardedScheduler*>(ctx);
  self->serial_current_ = tag;  // the executing shard, for affinity checks
  accumulate(*self->states_[tag], t, key, tag);
}

ShardedScheduler::Report ShardedScheduler::run_until(TimePoint deadline) {
  if (options_.mode == Mode::kSingleQueue) {
    ++rounds_;
    try {
      states_[0]->queue.run_until(deadline);
    } catch (...) {
      serial_current_ = kNoShard;
      throw;
    }
    serial_current_ = kNoShard;
  } else {
    const std::size_t n = states_.size();
    for (;;) {
      TimePoint t_min = EventQueue::kNoEventTime;
      for (auto& state : states_) {
        t_min = std::min(t_min, state->queue.next_time());
      }
      if (t_min > deadline) break;
      // Conservative window: every event at time t in [t_min, window] can
      // only reach another shard at t + lookahead > window, so the shards
      // are independent inside it.
      TimePoint window = deadline;
      if (lookahead_ != ShardPlan::kUnbounded &&
          t_min <= EventQueue::kNoEventTime - lookahead_) {
        window = std::min(deadline, t_min + lookahead_ - 1);
      }
      ++rounds_;
      running_ = true;
      try {
        runner_->run_indexed(n, [this, window](std::size_t i) {
          tls_current_shard = static_cast<std::uint32_t>(i);
          states_[i]->queue.run_until(window);
          tls_current_shard = kNoShard;
        });
      } catch (...) {
        running_ = false;
        tls_current_shard = kNoShard;  // caller participates as a worker
        throw;
      }
      running_ = false;
      flush_outboxes();  // the barrier: deliver cross-shard messages
    }
    // No runnable event at or before the deadline remains; tile every
    // shard clock forward so back-to-back run_until calls compose.
    for (auto& state : states_) {
      state->queue.run_until(deadline);
    }
  }
  Report report;
  report.rounds = rounds_;
  report.executed = executed();
  for (const auto& state : states_) {
    report.cross_shard_messages += static_cast<std::size_t>(state->sent);
  }
  report.trace_checksum = trace_checksum();
  return report;
}

std::uint64_t ShardedScheduler::trace_checksum() const {
  std::uint64_t acc = kFnvBasis;
  for (const auto& state : states_) {
    acc = (acc ^ state->chain) * kFnvPrime;
    acc = (acc ^ state->unordered) * kFnvPrime;
    acc = (acc ^ state->executed) * kFnvPrime;
  }
  return acc;
}

std::size_t ShardedScheduler::executed() const {
  std::size_t total = 0;
  for (const auto& state : states_) {
    total += static_cast<std::size_t>(state->executed);
  }
  return total;
}

}  // namespace cyd::sim
