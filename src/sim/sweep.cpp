#include "sim/sweep.hpp"

#include <algorithm>

namespace cyd::sim {
namespace {

/// The runner whose task this thread is running, if any.
thread_local const SweepRunner* current_runner = nullptr;

/// Marks the thread as inside `runner`'s task for its lifetime, restoring
/// the previous mark (a task of another runner) afterwards.
class TaskScope {
 public:
  explicit TaskScope(const SweepRunner* runner) : saved_(current_runner) {
    current_runner = runner;
  }
  ~TaskScope() { current_runner = saved_; }
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  const SweepRunner* saved_;
};

}  // namespace

double SweepStats::total_run_ms() const {
  double total = 0.0;
  for (const auto& run : runs) total += run.wall_ms;
  return total;
}

double SweepStats::max_run_ms() const {
  double longest = 0.0;
  for (const auto& run : runs) longest = std::max(longest, run.wall_ms);
  return longest;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

SweepRunner::SweepRunner(SweepOptions options) {
  unsigned workers = options.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  shards_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  threads_.reserve(workers - 1);
  for (unsigned i = 1; i < workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

bool SweepRunner::take(std::size_t shard, std::size_t& out) {
  auto& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.next >= s.end) return false;
  out = s.next++;
  return true;
}

bool SweepRunner::steal(std::size_t thief, std::size_t& out) {
  const std::size_t n = shards_.size();
  for (std::size_t k = 1; k < n; ++k) {
    auto& victim = *shards_[(thief + k) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.next >= victim.end) continue;
    out = --victim.end;  // thieves take from the back, owners from the front
    return true;
  }
  return false;
}

bool SweepRunner::in_own_task() const { return current_runner == this; }

void SweepRunner::drain(std::size_t self,
                        const std::function<void(std::size_t)>& task) {
  const TaskScope scope(this);
  std::size_t index = 0;
  while (take(self, index) || steal(self, index)) {
    try {
      task(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job_mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(job_mutex_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void SweepRunner::worker_loop(std::size_t self) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(std::size_t)>* task = nullptr;
    {
      std::unique_lock<std::mutex> lock(job_mutex_);
      job_cv_.wait(lock, [&] {
        return stopping_ || job_generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = job_generation_;
      task = job_task_;
      if (task == nullptr) continue;  // woke after the job already finished
      ++draining_;
    }
    drain(self, *task);
    {
      std::lock_guard<std::mutex> lock(job_mutex_);
      if (--draining_ == 0) done_cv_.notify_all();
    }
  }
}

void SweepRunner::run_indexed(std::size_t count,
                              const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  if (in_own_task()) {
    std::exception_ptr error;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  // Balanced contiguous partition of [0, count) across the shards.
  const std::size_t n = shards_.size();
  const std::size_t base = count / n;
  const std::size_t extra = count % n;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    shards_[s]->next = begin;
    shards_[s]->end = begin + len;
    begin += len;
  }

  {
    std::lock_guard<std::mutex> lock(job_mutex_);
    first_error_ = nullptr;
    remaining_ = count;
    job_task_ = &task;
    ++job_generation_;
  }
  job_cv_.notify_all();

  drain(0, task);  // the caller works its own shard and then steals

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(job_mutex_);
    done_cv_.wait(lock, [&] { return remaining_ == 0 && draining_ == 0; });
    job_task_ = nullptr;  // late-waking workers must see "no job"
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

SweepRunner& default_sweep_runner() {
  static SweepRunner runner;
  return runner;
}

}  // namespace cyd::sim
