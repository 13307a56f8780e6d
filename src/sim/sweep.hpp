#pragma once
// Parallel Monte-Carlo sweep runner.
//
// Every quantitative result in the reproduction (the §V trend curves, the
// ablations) is a sweep of independent seeded Simulation runs. SweepRunner
// fans those runs across a work-stealing thread pool while keeping the
// aggregation deterministic: results land in a vector slot chosen by run
// index, and reduce() folds in index order, so a parallel sweep is
// bit-identical to the serial loop it replaced regardless of which worker
// finishes first. Each run builds its own Simulation (and everything
// hanging off it) inside the worker; no simulation state crosses threads.
//
// Work distribution: indices [0, runs) are pre-partitioned into one
// contiguous shard per worker; a worker drains its own shard from the
// front and, when empty, steals single runs from the *back* of another
// shard. Runs are coarse (whole campaigns, typically milliseconds to
// seconds each), so per-steal locking is noise.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace cyd::sim {

/// Identity of one run inside a sweep: its slot in the result vector and
/// the seed derived for it.
struct SweepRun {
  std::size_t index = 0;
  std::uint64_t seed = 0;
};

/// Per-run measurement, collected by run index.
struct RunStats {
  std::uint64_t seed = 0;
  double wall_ms = 0.0;
};

struct SweepStats {
  std::vector<RunStats> runs;  // indexed by run number
  double wall_ms = 0.0;        // whole sweep, caller's clock
  unsigned workers = 0;

  /// Sum of per-run wall times — the serial-equivalent cost.
  double total_run_ms() const;
  /// Longest single run — the lower bound on parallel wall time.
  double max_run_ms() const;
};

struct SweepOptions {
  unsigned workers = 0;  // 0 -> hardware_concurrency()
};

/// SplitMix64 over (base_seed, index): deterministic, well-spread per-run
/// seeds. Serial baselines must use the same derivation to stay
/// bit-identical with SweepRunner::map.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Worker count including the calling thread, which participates.
  unsigned workers() const {
    return static_cast<unsigned>(threads_.size()) + 1;
  }

  /// Invokes task(i) exactly once for every i in [0, count), distributed
  /// across the pool. Blocks until all invocations complete; the first
  /// exception thrown by a task is rethrown here after the sweep settles.
  /// A call made from inside one of this runner's own tasks (a sweep task
  /// that clusters a pile, say) runs inline on the calling thread in index
  /// order: the pool is busy with the outer sweep, and waiting on it from
  /// one of its own tasks would deadlock.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// Runs fn(SweepRun) for `runs` independent runs and returns the results
  /// ordered by run index. R must be default-constructible.
  template <class Fn>
  auto map(std::size_t runs, std::uint64_t base_seed, Fn&& fn) {
    using R = std::invoke_result_t<Fn&, const SweepRun&>;
    static_assert(std::is_default_constructible_v<R>,
                  "SweepRunner::map result type must be default-constructible");
    std::vector<R> results(runs);
    // A nested map (inline, see run_indexed) keeps its stats to itself so
    // last_stats() still describes the outer sweep.
    SweepStats nested_stats;
    SweepStats& stats = in_own_task() ? nested_stats : stats_;
    stats = SweepStats{};
    stats.runs.resize(runs);
    stats.workers = workers();
    const auto sweep_start = std::chrono::steady_clock::now();
    run_indexed(runs, [&](std::size_t i) {
      const SweepRun run{i, derive_seed(base_seed, i)};
      const auto run_start = std::chrono::steady_clock::now();
      results[i] = fn(run);  // distinct slots; no synchronisation needed
      stats.runs[i] = RunStats{run.seed, elapsed_ms(run_start)};
    });
    stats.wall_ms = elapsed_ms(sweep_start);
    return results;
  }

  /// map() followed by a fold in run-index order — deterministic no matter
  /// how the runs were scheduled.
  template <class Fn, class T, class Combine>
  T reduce(std::size_t runs, std::uint64_t base_seed, Fn&& fn, T init,
           Combine&& combine) {
    auto results = map(runs, base_seed, std::forward<Fn>(fn));
    for (auto& result : results) {
      init = combine(std::move(init), std::move(result));
    }
    return init;
  }

  /// Stats for the most recent top-level map()/reduce() call.
  const SweepStats& last_stats() const { return stats_; }

 private:
  struct Shard {
    std::mutex mutex;
    std::size_t next = 0;
    std::size_t end = 0;
  };

  static double elapsed_ms(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  /// True on a thread that is running one of this runner's tasks.
  bool in_own_task() const;

  void worker_loop(std::size_t self);
  void drain(std::size_t self, const std::function<void(std::size_t)>& task);
  bool take(std::size_t shard, std::size_t& out);
  bool steal(std::size_t thief, std::size_t& out);

  std::vector<std::unique_ptr<Shard>> shards_;  // one per worker; [0]=caller
  std::vector<std::thread> threads_;

  // Job control. All completion bookkeeping is under job_mutex_: runs are
  // coarse, so the lock is uncontended and the protocol stays trivially
  // race-free (TSan-clean by construction).
  std::mutex job_mutex_;
  std::condition_variable job_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;  // caller waits for completion
  std::uint64_t job_generation_ = 0;
  const std::function<void(std::size_t)>* job_task_ = nullptr;
  std::size_t remaining_ = 0;  // tasks not yet finished
  std::size_t draining_ = 0;   // pool workers currently inside drain()
  bool stopping_ = false;
  std::exception_ptr first_error_;

  SweepStats stats_;
};

/// Process-wide runner sized to the hardware, built on first use. Benches
/// and tools that just want "run this sweep on all cores" go through the
/// Sweep:: helpers below.
SweepRunner& default_sweep_runner();

struct Sweep {
  /// Sweep::map(runs, base_seed, fn) on the default runner.
  template <class Fn>
  static auto map(std::size_t runs, std::uint64_t base_seed, Fn&& fn) {
    return default_sweep_runner().map(runs, base_seed, std::forward<Fn>(fn));
  }

  /// Maps fn over an explicit parameter list (one run per item), returning
  /// results in item order. The per-run seed is derived from the item index
  /// so runs stay reproducible.
  template <class P, class Fn>
  static auto map_items(const std::vector<P>& items, Fn&& fn) {
    return default_sweep_runner().map(
        items.size(), 0,
        [&](const SweepRun& run) { return fn(items[run.index]); });
  }

  template <class Fn, class T, class Combine>
  static T reduce(std::size_t runs, std::uint64_t base_seed, Fn&& fn, T init,
                  Combine&& combine) {
    return default_sweep_runner().reduce(runs, base_seed,
                                         std::forward<Fn>(fn), std::move(init),
                                         std::forward<Combine>(combine));
  }

  /// Stats for the most recent sweep on the default runner.
  static const SweepStats& last_stats() {
    return default_sweep_runner().last_stats();
  }
};

}  // namespace cyd::sim
