// CNC-THROUGHPUT — the C&C request pipeline under beacon storms.
//
// The seed CncServer paid for every beacon with an O(clients) scan over
// string-map rows, two format_time allocations, stoull/to_string round-trips,
// and an owned-copy decode of the request body. cnc::RequestEngine replaced
// that handler. The golden checksums below were recorded while the seed
// handler still ran beside it over the same streams and both produced them,
// so matching a pin means matching the seed:
//
//  (1) Identity, fatally asserted: over fixed beacon streams the pipeline's
//      response chain and state checksum match their pins. In the sharded
//      storm the merged checksums must match their pin and the single-queue
//      run at every worker count (1, 2, hw workers).
//  (2) Single-thread throughput: `beacons_per_sec` exported as a bench_diff
//      floor; `cnc_client_scaling` (per-beacon time at 3,200 clients over
//      400) as a ceiling that O(clients) per-beacon work — the seed's scan —
//      blows.
//  (3) Storm scaling: one engine per site shard on sim::ShardedScheduler,
//      >=2x over the single-queue run on 4+ cores (fatal when the cores
//      exist); `cnc_storm_speedup_4core` exported on 4+-core machines.
//  (4) Storm + purge tail latency: per-beacon p50/p99/max with the pickup
//      and purge cadence running; the O(pending) contract is gated
//      structurally (total purge scan work <= purged + ticks, fatal) and
//      `p99_handle_ns` exported as a bench_diff ceiling.

#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/sweep.hpp"
#include "sim/time.hpp"

using namespace cyd;
using benchutil::fatal;
using benchutil::time_ms;

namespace {

// ---------------------------------------------------------------------------
// Deterministic beacon streams. An op is either a wave of requests (one
// beacon burst hitting the server at `at`) or the attack-center cadence
// (pickup + purge). Ops are generated in strictly increasing time order per
// stream, so replaying the vector serially and scheduling it onto a shard
// execute identically.

struct Op {
  sim::TimePoint at = 0;
  std::vector<net::HttpRequest> requests;  // empty for pickup ops
  sim::TimePoint purge_cutoff = 0;
  bool pickup = false;
};

struct OpStream {
  std::vector<Op> ops;
  std::size_t beacons = 0;
};

OpStream make_stream(std::uint64_t seed, std::size_t clients,
                     std::size_t waves, std::size_t wave_size,
                     sim::Duration wave_gap, std::size_t pickup_every,
                     const cnc::CncPublicKey& upload_key,
                     const std::string& client_prefix) {
  OpStream stream;
  sim::Rng rng(seed);
  for (std::size_t w = 0; w < waves; ++w) {
    Op wave;
    wave.at = static_cast<sim::TimePoint>(w + 1) * wave_gap;
    wave.requests.reserve(wave_size);
    for (std::size_t i = 0; i < wave_size; ++i) {
      net::HttpRequest r;
      r.path = "/newsforyou";
      const std::string client =
          client_prefix +
          std::to_string(rng.uniform_int(
              0, static_cast<std::int64_t>(clients) - 1));
      const double roll = rng.next_double();
      if (roll < 0.20) {
        r.method = "POST";
        r.params = {{"cmd", "ADD_ENTRY"}, {"client", client}, {"type", "FL"}};
        r.body = cnc::serialize_entry_upload(
            "f" + std::to_string(w) + "-" + std::to_string(i),
            cnc::encrypt_for(upload_key,
                             "loot " + std::to_string(rng.next_u64())));
      } else if (roll < 0.23) {
        r.path = roll < 0.215 ? "/wrong" : "/newsforyou";  // 404s and 400s
        r.params = {{"cmd", roll < 0.215 ? "GET_NEWS" : "DANCE"},
                    {"client", client}};
      } else {
        r.params = {{"cmd", "GET_NEWS"},
                    {"client", client},
                    {"type", rng.bernoulli(0.5) ? "FL" : "SP"}};
      }
      wave.requests.push_back(std::move(r));
      ++stream.beacons;
    }
    stream.ops.push_back(std::move(wave));
    if (pickup_every != 0 && (w + 1) % pickup_every == 0) {
      Op pickup;
      pickup.at = stream.ops.back().at + wave_gap / 2;
      pickup.pickup = true;
      pickup.purge_cutoff = pickup.at - 2 * sim::kHour;
      stream.ops.push_back(std::move(pickup));
    }
  }
  return stream;
}

struct RunResult {
  double ms = 0.0;
  std::uint64_t response_chain = 0;
  std::uint64_t state_checksum = 0;
};

RunResult run_pipeline(const OpStream& stream) {
  cnc::RequestEngine engine;
  engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  RunResult result;
  result.ms = time_ms([&] {
    for (const Op& op : stream.ops) {
      if (op.pickup) {
        engine.take_new_entries();
        engine.purge_retrieved(op.purge_cutoff);
      } else {
        engine.handle_batch(op.requests, op.at);
      }
    }
  });
  result.response_chain = engine.response_chain();
  result.state_checksum = engine.state_checksum();
  return result;
}

// ---------------------------------------------------------------------------
// The sharded beacon storm: one engine per site shard, one stream per shard,
// merged deterministically in shard index order.

std::vector<OpStream> make_storm_streams(std::size_t shards,
                                         std::size_t clients_per_shard,
                                         std::size_t waves,
                                         std::size_t wave_size,
                                         const cnc::CncPublicKey& upload_key) {
  std::vector<OpStream> streams;
  streams.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    streams.push_back(make_stream(
        sim::derive_seed(0xc2c570, shard), clients_per_shard, waves,
        wave_size, sim::minutes(10), /*pickup_every=*/36, upload_key,
        "c" + std::to_string(shard) + "-"));
  }
  return streams;
}

struct StormResult {
  cnc::StormMerge merge;
  double ms = 0.0;
};

StormResult run_storm_pipeline(const std::vector<OpStream>& streams,
                               sim::ShardedScheduler::Mode mode,
                               unsigned workers) {
  const std::size_t shards = streams.size();
  std::vector<cnc::RequestEngine> engines(shards);
  for (auto& engine : engines) {
    engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  }

  // Ring of 6-hour WAN links. Beacons terminate at their site's server, so
  // there is no cross-shard traffic; the channels exist to give the
  // conservative windows a realistic lookahead instead of the unbounded
  // isolated-shard fast path.
  sim::ShardedScheduler scheduler(benchutil::ring_plan(shards),
                                  sim::ShardedScheduler::Options{mode, workers});

  sim::TimePoint horizon = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    cnc::RequestEngine* engine = &engines[shard];
    for (const Op& op : streams[shard].ops) {
      horizon = std::max(horizon, op.at);
      const Op* bound = &op;
      if (op.pickup) {
        scheduler.schedule(shard, op.at, [engine, bound] {
          engine->take_new_entries();
          engine->purge_retrieved(bound->purge_cutoff);
        });
      } else {
        scheduler.schedule(shard, op.at, [engine, bound] {
          engine->handle_batch(bound->requests, bound->at);
        });
      }
    }
  }

  StormResult result;
  result.ms = time_ms([&] { scheduler.run_until(horizon + 1); });
  result.merge = cnc::merge_storm(engines);
  return result;
}

/// A run's (response chain, state checksum) pair, or a merged storm's.
struct Checksums {
  std::uint64_t response = 0;
  std::uint64_t state = 0;
};

Checksums checksums(const RunResult& r) {
  return {r.response_chain, r.state_checksum};
}

Checksums checksums(const StormResult& r) {
  return {r.merge.response_checksum, r.merge.state_checksum};
}

// Golden checksums, each recorded while the seed handler still replayed the
// same stream(s) and produced the same pair.
// The repro pass's 60k-beacon stream, 800 clients.
constexpr Checksums kReproPin{0x2708e4d06f540d35ull, 0xd906bbe435765b86ull};
// smoke_stream (400 clients) and wide_stream (3,200 clients).
constexpr Checksums kSmokePin{0x6acfe7b63608d0b1ull, 0x0562828605a0ca82ull};
constexpr Checksums kWidePin{0x3f8669d0a0899f47ull, 0x0e87f708409862e3ull};
// The repro pass's 8-shard storm, merged in shard order.
constexpr Checksums kStormPin{0x086a11762c3c0defull, 0x455aa106326812deull};

void check_checksums(const char* what, const Checksums& got,
                     const Checksums& expected) {
  if (got.response == expected.response && got.state == expected.state) return;
  fatal("%s diverged (response %016llx, state %016llx; expected %016llx, "
        "%016llx)",
        what, static_cast<unsigned long long>(got.response),
        static_cast<unsigned long long>(got.state),
        static_cast<unsigned long long>(expected.response),
        static_cast<unsigned long long>(expected.state));
}

// ---------------------------------------------------------------------------
// Storm + purge tail latency: per-beacon handle() latency percentiles with
// the pickup/purge cadence running, plus the structural O(pending) gate.

struct LatencyResult {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
  std::uint64_t purged = 0;
  std::uint64_t ticks = 0;
  std::uint64_t purge_scanned = 0;
};

LatencyResult run_latency(const OpStream& stream) {
  cnc::RequestEngine engine;
  engine.push_news(cnc::Payload{"mod-broadcast", "broadcast module bytes"});
  std::vector<double> samples;
  samples.reserve(stream.beacons);
  LatencyResult result;
  for (const Op& op : stream.ops) {
    if (op.pickup) {
      engine.take_new_entries();
      result.purged += engine.purge_retrieved(op.purge_cutoff);
      ++result.ticks;
    } else {
      for (const net::HttpRequest& r : op.requests) {
        const auto start = std::chrono::steady_clock::now();
        engine.handle(r, op.at);
        samples.push_back(std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
    }
  }
  result.purge_scanned = engine.scan_stats().total_purge_scanned;
  std::sort(samples.begin(), samples.end());
  if (!samples.empty()) {
    result.p50_ns = samples[samples.size() / 2];
    result.p99_ns = samples[samples.size() * 99 / 100];
    result.max_ns = samples.back();
  }
  return result;
}

void check_purge_cost(const LatencyResult& r) {
  // Each purge examines at most purged-this-tick + 1 entries; summed over
  // the run that is <= total purged + one probe per tick. A full-scan
  // regression makes purge_scanned proportional to resident history and
  // blows through this immediately.
  if (r.purge_scanned > r.purged + r.ticks) {
    fatal("purge scan work exceeds purged + ticks — O(pending) contract broken");
  }
}

// ---------------------------------------------------------------------------
// Reproduction pass

void reproduce_cnc_throughput() {
  const auto key_pair = cnc::CncKeyPair::generate(0xc2c0ffee);
  const auto upload_key = cnc::public_half(key_pair);

  benchutil::section("single-thread: zero-copy pipeline");
  const OpStream flat =
      make_stream(0xbea7, /*clients=*/800, /*waves=*/400, /*wave_size=*/150,
                  sim::kMinute, /*pickup_every=*/20, upload_key, "c-");
  std::printf("%zu beacons, 800 clients, pickup+purge every 20 waves\n",
              flat.beacons);
  const RunResult pipeline = run_pipeline(flat);
  check_checksums("pipeline", checksums(pipeline), kReproPin);
  std::printf("pipeline:   %8.1f ms  (%.0f beacons/s)\n", pipeline.ms,
              1000.0 * static_cast<double>(flat.beacons) / pipeline.ms);
  std::printf("responses and state match the pinned checksums\n");

  benchutil::section("sharded beacon storm (8 site shards)");
  const auto streams = make_storm_streams(/*shards=*/8,
                                          /*clients_per_shard=*/200,
                                          /*waves=*/400, /*wave_size=*/50,
                                          upload_key);
  std::size_t total = 0;
  for (const auto& s : streams) total += s.beacons;
  std::printf("%zu beacons across 8 shards; 6h WAN ring lookahead\n", total);

  const StormResult single =
      run_storm_pipeline(streams, sim::ShardedScheduler::Mode::kSingleQueue, 1);
  check_checksums("single-queue storm", checksums(single), kStormPin);
  std::printf("single-queue:     %8.1f ms (pipeline reference)\n", single.ms);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> worker_counts{1, 2};
  if (hw > 2) worker_counts.push_back(hw);
  std::printf("\n%-10s %-12s %-10s %-18s\n", "workers", "wall-ms", "speedup",
              "merged-checksums");
  double best_speedup = 0.0;
  for (const unsigned workers : worker_counts) {
    const StormResult sharded = run_storm_pipeline(
        streams, sim::ShardedScheduler::Mode::kSharded, workers);
    check_checksums("sharded storm vs single-queue", checksums(sharded),
                    checksums(single));
    const double s = single.ms / sharded.ms;
    best_speedup = std::max(best_speedup, s);
    std::printf("%-10u %-12.1f %-10.2f %-18s\n", workers, sharded.ms, s,
                "yes (bit-identical)");
  }
  std::printf("\nevery run (single-queue, sharded x%zu) merged to the "
              "pinned response/state checksums.\n",
              worker_counts.size());
  if (hw >= 4) {
    std::printf("best storm speedup %.2fx on %u cores (target: >=2x)\n",
                best_speedup, hw);
    if (best_speedup < 2.0) {
      fatal("sharded storm speedup below the 2x floor on 4+ cores");
    }
  } else {
    std::printf("note: only %u hardware thread(s) — the >=2x storm target "
                "needs a 4+-core machine; identity holds on any.\n",
                hw);
  }

  benchutil::section("storm + purge: per-beacon latency tail");
  const OpStream tail =
      make_stream(0x7a11, /*clients=*/500, /*waves=*/300, /*wave_size=*/100,
                  sim::kMinute, /*pickup_every=*/12, upload_key, "c-");
  const LatencyResult lat = run_latency(tail);
  check_purge_cost(lat);
  std::printf("%zu beacons with pickup+purge every 12 waves\n", tail.beacons);
  std::printf("handle latency: p50 %.0f ns, p99 %.0f ns, max %.0f ns\n",
              lat.p50_ns, lat.p99_ns, lat.max_ns);
  std::printf("purge work: %llu scanned for %llu purged over %llu ticks "
              "(O(pending) gate: scanned <= purged + ticks)\n",
              static_cast<unsigned long long>(lat.purge_scanned),
              static_cast<unsigned long long>(lat.purged),
              static_cast<unsigned long long>(lat.ticks));
}

// ---------------------------------------------------------------------------
// google-benchmark cases for regression tracking (BENCH_*.json baselines)

OpStream smoke_stream(const cnc::CncPublicKey& upload_key) {
  return make_stream(0x57a7e, /*clients=*/400, /*waves=*/60, /*wave_size=*/100,
                     sim::kMinute, /*pickup_every=*/15, upload_key, "c-");
}

/// smoke_stream's beacon count over 8x the clients: the other side of the
/// cnc_client_scaling ratio.
OpStream wide_stream(const cnc::CncPublicKey& upload_key) {
  return make_stream(0x57a7e, /*clients=*/3200, /*waves=*/60,
                     /*wave_size=*/100, sim::kMinute, /*pickup_every=*/15,
                     upload_key, "c-");
}

const cnc::CncPublicKey& bench_key() {
  static const cnc::CncPublicKey key =
      cnc::public_half(cnc::CncKeyPair::generate(0xc2c0ffee));
  return key;
}

void BM_CncPipeline(benchmark::State& state) {
  const OpStream stream = smoke_stream(bench_key());
  double total_ms = 0.0;
  std::size_t beacons = 0;
  for (auto _ : state) {
    const RunResult r = run_pipeline(stream);
    total_ms += r.ms;
    beacons += stream.beacons;
    benchmark::DoNotOptimize(r.state_checksum);
  }
  // Hard bench_diff floor: the decode+handle rate a single thread sustains.
  // The CI floor sits ~10x under the reference box's rate (see ci.yml).
  if (total_ms > 0.0) {
    state.counters["beacons_per_sec"] =
        1000.0 * static_cast<double>(beacons) / total_ms;
  }
}
BENCHMARK(BM_CncPipeline)->Unit(benchmark::kMillisecond);

/// Per-beacon pipeline time at 3,200 clients over the same at 400, each
/// side best-of-3 in one process, so runner speed cancels. An interned
/// client index keeps it near 1 (1.2-1.7 on a 4-core Xeon); O(clients)
/// per-beacon work, like the seed handler's row scan, read 4.6-6.6.
/// CI ceilings it at 3.
void BM_CncClientScaling(benchmark::State& state) {
  const OpStream narrow = smoke_stream(bench_key());
  const OpStream wide = wide_stream(bench_key());
  double narrow_ms = 1e300;
  double wide_ms = 1e300;
  for (auto _ : state) {
    for (int rep = 0; rep < 3; ++rep) {
      const RunResult n = run_pipeline(narrow);
      const RunResult w = run_pipeline(wide);
      check_checksums("pipeline (400 clients)", checksums(n), kSmokePin);
      check_checksums("pipeline (3,200 clients)", checksums(w), kWidePin);
      narrow_ms = std::min(narrow_ms, n.ms);
      wide_ms = std::min(wide_ms, w.ms);
    }
  }
  // Hard gates: 1.0 means every response/state checksum matched its pin (the
  // process died before reporting otherwise); the scaling ratio is a
  // ceiling.
  state.counters["cnc_response_match"] = 1.0;
  state.counters["cnc_client_scaling"] =
      (wide_ms / static_cast<double>(wide.beacons)) /
      (narrow_ms / static_cast<double>(narrow.beacons));
}
BENCHMARK(BM_CncClientScaling)->Unit(benchmark::kMillisecond);

void BM_CncShardedStorm(benchmark::State& state) {
  const auto streams = make_storm_streams(/*shards=*/4,
                                          /*clients_per_shard=*/120,
                                          /*waves=*/120, /*wave_size=*/25,
                                          bench_key());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double single_ms = 0.0;
  double sharded_ms = 0.0;
  for (auto _ : state) {
    const StormResult single = run_storm_pipeline(
        streams, sim::ShardedScheduler::Mode::kSingleQueue, 1);
    const StormResult sharded =
        run_storm_pipeline(streams, sim::ShardedScheduler::Mode::kSharded, 0);
    check_checksums("sharded storm vs single-queue", checksums(sharded),
                    checksums(single));
    single_ms += single.ms;
    sharded_ms += sharded.ms;
    benchmark::DoNotOptimize(sharded.merge.state_checksum);
  }
  // Only meaningful with the cores; a counter the baseline lacks is legal
  // for bench_diff, dropping one it has is not (same convention as
  // sharded_speedup_4core).
  if (hw >= 4 && sharded_ms > 0.0) {
    state.counters["cnc_storm_speedup_4core"] = single_ms / sharded_ms;
  }
}
BENCHMARK(BM_CncShardedStorm)->Unit(benchmark::kMillisecond);

void BM_CncStormPurge(benchmark::State& state) {
  const OpStream stream = smoke_stream(bench_key());
  double p99 = 0.0;
  for (auto _ : state) {
    const LatencyResult lat = run_latency(stream);
    check_purge_cost(lat);  // exits when purge stops being O(pending)
    p99 = std::max(p99, lat.p99_ns);
    benchmark::DoNotOptimize(lat.p99_ns);
  }
  // Hard bench_diff ceiling: an O(history) slip in handle/pickup/purge blows
  // the tail latency by orders of magnitude, far past runner noise.
  state.counters["p99_handle_ns"] = p99;
}
BENCHMARK(BM_CncStormPurge)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header(
      "CNC-THROUGHPUT: sharded C&C request pipeline",
      "framework performance for the Fig. 5 C&C platform under beacon storms");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_cnc_throughput();
  }
  return benchutil::run_benchmarks(argc, argv);
}
