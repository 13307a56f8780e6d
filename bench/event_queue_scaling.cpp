// EVENT-QUEUE-SCALING — the perf story behind the discrete-event core.
//
// Every scenario in the reproduction runs through sim::EventQueue, so its
// per-event cost multiplies across the millions of Monte-Carlo events the
// sweeps execute. The seed implementation paid one shared_ptr<bool> control
// block per schedule_at (the cancellation handle) plus a std::function heap
// closure for any capture past two words, and sifted 64+-byte entries
// through a binary std::priority_queue. The reworked core is slab slots +
// SBO callables + a compact 4-ary heap + native periodic scheduling.
//
// Two claims:
//  (1) unchanged semantics: every workload fires the same events in the
//      same (time, insertion) order as the seed queue did — asserted via
//      order-sensitive checksums pinned while the seed queue still ran
//      beside the slab core and agreed with it, fatal on divergence;
//  (2) the *dense* periodic regime (10⁴ concurrent minute-scale beacon
//      series) fires in a pinned order at a bounded per-event cost — the
//      heap's worst case, since every firing re-arms through an
//      O(log series) sift. Exported as the `dense_event_ns` ceiling.

#include "bench_util.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

using namespace cyd;
using benchutil::check_pin;
using benchutil::time_ms;

namespace {

// Order-sensitive checksum mixer: any divergence in firing order, time, or
// payload identity between the implementations changes the result.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h = (h ^ v) * 1099511628211ull;
}

/// One-shot churn: `events` events at pseudo-random times over a horizon,
/// scheduled up front, drained in one run_all.
std::uint64_t schedule_drain(std::size_t events) {
  sim::EventQueue q;
  std::uint64_t h = 14695981039346656037ull;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < events; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto t = static_cast<sim::TimePoint>(state % 1'000'000);
    const std::uint64_t salt = i * 0x9e37ull;  // 3-word capture, like a beacon
    q.schedule_at(
        t, [&h, t, salt] { mix(h, static_cast<std::uint64_t>(t) + salt); });
  }
  q.run_all();
  return h;
}

/// The acceptance workload: `series` periodic beacons (C&C check-ins, purge
/// tasks, centrifuge ticks) with co-prime-ish periods, each eighth firing
/// spawning a one-shot follow-up — the shape a campaign scenario generates.
std::uint64_t mixed_periodic(std::size_t series, sim::Duration horizon) {
  sim::EventQueue queue;
  auto* q = &queue;
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < series; ++i) {
    const sim::Duration period = 3 + static_cast<sim::Duration>(i % 17);
    std::uint64_t ticks = 0;
    q->schedule_every(
        period,
        [q, &h, i, ticks]() mutable {
          mix(h, static_cast<std::uint64_t>(q->now()) * 31 + i);
          if (++ticks % 8 == 0) {
            const auto t = q->now() + 1;
            q->schedule_at(t,
                           [&h, t] { mix(h, static_cast<std::uint64_t>(t)); });
          }
        },
        q->now() + period);
  }
  q->run_until(horizon);
  return h;
}

/// Cancellation churn: schedule a batch, cancel every other handle, drain.
std::uint64_t cancel_drain(std::size_t events) {
  sim::EventQueue q;
  std::uint64_t h = 14695981039346656037ull;
  std::vector<sim::EventHandle> handles;
  handles.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const auto t = static_cast<sim::TimePoint>((i * 7919) % 100'000);
    handles.push_back(
        q.schedule_at(t, [&h, t] { mix(h, static_cast<std::uint64_t>(t)); }));
  }
  for (std::size_t i = 0; i < events; i += 2) handles[i].cancel();
  q.run_all();
  return h;
}

/// The dense periodic regime: `series` concurrent minute-scale beacons
/// (60–120s periods, phase-staggered), the shape of a fleet-wide C&C
/// check-in schedule. The pending set stays at `series` events for the
/// whole run, so every firing pays an O(log series) sift.
std::uint64_t dense_periodic(std::size_t series, sim::Duration horizon,
                             std::uint64_t* executed = nullptr) {
  sim::EventQueue q;
  q.reserve(series);
  std::uint64_t h = 14695981039346656037ull;
  auto* qp = &q;
  for (std::size_t i = 0; i < series; ++i) {
    const auto period =
        static_cast<sim::Duration>(60'000 + (i * 2654435761ull) % 60'000);
    const auto first = static_cast<sim::TimePoint>(
        1 + (i * 40503ull) % static_cast<std::uint64_t>(period));
    q.schedule_every(
        period,
        [qp, &h, i] { mix(h, static_cast<std::uint64_t>(qp->now()) * 31 + i); },
        first);
  }
  q.run_until(horizon);
  if (executed) *executed = q.stats().executed;
  return h;
}

// ---------------------------------------------------------------------------
// Reproduction pass: pinned firing orders + throughput table.

constexpr std::size_t kReproEvents = 200'000;
constexpr std::size_t kReproSeries = 64;
// Long horizon on purpose: the acceptance target is *steady-state*
// throughput, so the run has to be dominated by periodic re-arms, not by
// series setup. 240s of simulated time is ~2.1M firings for 64 series.
constexpr sim::Duration kReproHorizon = 240'000;
// ~64 series over periods 3..19ms for the horizon plus 1/8 one-shot
// follow-ups; approximate, used only for the ev/s display column.
constexpr std::size_t kMixedEvents = 2'150'000;
// Dense regime: 10^4 concurrent beacon series — a fleet-sized check-in
// schedule whose working set (slab + heap) is cache-resident, so the
// measured cost is the queue structures themselves, not shared slab misses —
// over 100 simulated minutes (~693k firings). Both horizons' firing streams
// are pinned: order-sensitive checksum and count, fatal on divergence.
constexpr std::size_t kDenseSeries = 10'000;
constexpr sim::Duration kDenseHorizon = 6'000'000;
constexpr std::uint64_t kDenseChecksum = 0x9e33e1c85e741f4aull;
constexpr std::uint64_t kDenseFirings = 693'199;
// Shorter horizon for the regression-tracked benchmark case (~231k firings
// keeps one iteration under 50ms).
constexpr sim::Duration kDenseBenchHorizon = 2'000'000;
constexpr std::uint64_t kDenseBenchChecksum = 0x2366237fcc5ba681ull;
constexpr std::uint64_t kDenseBenchFirings = 231'074;
// Sizes of the regression-tracked schedule/mixed/cancel cases.
constexpr std::size_t kBenchEvents = 50'000;
constexpr sim::Duration kBenchHorizon = 8'000;

// Golden firing-order checksums at the repro and benchmark sizes, recorded
// while the seed queue still ran each workload beside the slab core and
// both produced the same value.
constexpr std::uint64_t kScheduleDrainPin = 0x215638a3fc6ff376ull;
constexpr std::uint64_t kMixedPeriodicPin = 0x03699cd8bdd9b18cull;
constexpr std::uint64_t kCancelDrainPin = 0xcbba98ab8831b1e5ull;
constexpr std::uint64_t kBenchScheduleDrainPin = 0xb15909426bdeadf4ull;
constexpr std::uint64_t kBenchMixedPeriodicPin = 0x98ba3da9101fda4bull;
constexpr std::uint64_t kBenchCancelDrainPin = 0x6ebcd4d704c31095ull;

void check_dense_pin(std::uint64_t sum, std::uint64_t executed,
                     std::uint64_t pinned_sum, std::uint64_t pinned_firings) {
  check_pin("dense periodic checksum", sum, pinned_sum);
  check_pin("dense periodic firings", executed, pinned_firings);
}

/// Times one workload, checks its pinned checksum (fatal on divergence) and
/// prints its table row.
void measure(const char* workload, std::size_t events, std::uint64_t pin,
             std::uint64_t (*run)()) {
  std::uint64_t sum = 0;
  const double ms = time_ms([&] { sum = run(); });
  check_pin(workload, sum, pin);
  std::printf("%-18s %-12.1f %.1fM ev/s\n", workload, ms,
              static_cast<double>(events) / ms / 1000.0);
}

void reproduce_scaling() {
  benchutil::section(
      "schedule/cancel/drain throughput: slab core, pinned firing order");
  std::printf("%-18s %-12s %s\n", "workload", "slab-ms", "throughput");

  measure("schedule+drain", kReproEvents, kScheduleDrainPin,
          [] { return schedule_drain(kReproEvents); });
  measure("mixed periodic", kMixedEvents, kMixedPeriodicPin,
          [] { return mixed_periodic(kReproSeries, kReproHorizon); });
  measure("cancel half", kReproEvents, kCancelDrainPin,
          [] { return cancel_drain(kReproEvents); });

  std::printf("\nevery checksum matched its pin: the core fires the seed "
              "queue's (time, seq) sequences.\n");

  // Scheduler observability: the counters the slab core exports.
  sim::EventQueue q;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < 1000; ++i) {
    q.schedule_at(static_cast<sim::TimePoint>(i % 97), [&sink] { ++sink; });
  }
  auto series = q.schedule_every(5, [&sink] { ++sink; }, q.now() + 5);
  q.run_until(200);
  series.cancel();
  q.run_all();
  const auto& stats = q.stats();
  std::printf("\nscheduler counters (sample run): scheduled=%llu "
              "executed=%llu cancelled=%llu peak_pending=%zu\n",
              static_cast<unsigned long long>(stats.scheduled),
              static_cast<unsigned long long>(stats.executed),
              static_cast<unsigned long long>(stats.cancelled),
              stats.peak_pending);
}

void reproduce_dense_periodic() {
  benchutil::section("dense periodic regime: 4-ary heap, pinned firing order");
  std::printf("%zu beacon series, 60-120s periods, %llds simulated horizon\n",
              kDenseSeries,
              static_cast<long long>(kDenseHorizon / 1000));

  std::uint64_t sum = 0;
  std::uint64_t executed = 0;
  const double ms = time_ms([&] {
    sum = dense_periodic(kDenseSeries, kDenseHorizon, &executed);
  });
  check_dense_pin(sum, executed, kDenseChecksum, kDenseFirings);

  const auto events = static_cast<double>(executed);
  std::printf("%-18s %-12s %-14s %s\n", "queue", "ms", "ev/s", "ns/event");
  std::printf("%-18s %-12.1f %-14.2fM %.0f\n", "4-ary heap", ms,
              events / ms / 1000.0, ms * 1e6 / events);
  std::printf("\nfiring order matches the pin over %llu events\n",
              static_cast<unsigned long long>(executed));
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

void BM_ScheduleDrainSlab(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto h = schedule_drain(events);
    check_pin("schedule+drain", h, kBenchScheduleDrainPin);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ScheduleDrainSlab)
    ->Arg(kBenchEvents)
    ->Unit(benchmark::kMillisecond);

void BM_MixedPeriodicSlab(benchmark::State& state) {
  for (auto _ : state) {
    const auto h = mixed_periodic(kReproSeries, kBenchHorizon);
    check_pin("mixed periodic", h, kBenchMixedPeriodicPin);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_MixedPeriodicSlab)->Unit(benchmark::kMillisecond);

void BM_CancelDrainSlab(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto h = cancel_drain(events);
    check_pin("cancel half", h, kBenchCancelDrainPin);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_CancelDrainSlab)
    ->Arg(kBenchEvents)
    ->Unit(benchmark::kMillisecond);

/// Runs the dense periodic workload, checks its pinned firing stream (fatal
/// on divergence, same as the repro pass) and exports the CI-gated
/// `dense_event_ns` counter: the heap's per-event cost (ceilinged).
void BM_DensePeriodicHeap(benchmark::State& state) {
  // Best-of-N: the workload is deterministic, so the minimum observed time
  // is the noise-robust estimator — scheduler preemption on a loaded CI box
  // only ever inflates a run, never deflates it. Three runs per iteration
  // so even a single-iteration smoke pass gets a stable figure.
  double best = 1e300;
  std::uint64_t events = 0;
  for (auto _ : state) {
    for (int rep = 0; rep < 3; ++rep) {
      std::uint64_t sum = 0;
      best = std::min(best, time_ms([&] {
        sum = dense_periodic(kDenseSeries, kDenseBenchHorizon, &events);
      }));
      check_dense_pin(sum, events, kDenseBenchChecksum, kDenseBenchFirings);
      benchmark::DoNotOptimize(sum);
    }
  }
  state.counters["dense_event_ns"] = best * 1e6 / static_cast<double>(events);
}
BENCHMARK(BM_DensePeriodicHeap)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header("EVENT-QUEUE-SCALING: discrete-event core throughput",
                    "framework performance, not a paper figure");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_scaling();
    reproduce_dense_periodic();
  }
  return benchutil::run_benchmarks(argc, argv);
}
