#pragma once
// The four benchmark workloads. Each call builds its inputs from the seed
// (set-up), runs the timed phase, checks its own invariants and returns the
// outputs the pinned checks compare. main.cpp repeats calls
// until the run's time is spent.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sharded_scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

using Mode = cyd::sim::ShardedScheduler::Mode;
using Metrics = std::map<std::string, double>;
/// Named checksums and counts that identify a run's output.
using Outputs = std::vector<std::pair<std::string, std::uint64_t>>;

struct RunConfig {
  std::uint64_t seed = 1;
  /// ShardedScheduler workers, caller included. Always explicit and >= 1.
  unsigned workers = 1;
  Mode mode = Mode::kSharded;
  /// Record spans (the traced run); off for the end-to-end run.
  bool trace = false;
};

struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  double work = 0.0;  ///< operations completed in the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Outputs outputs;
  Metrics layer;  ///< per-layer metrics; times only when traced
  Metrics extra;  ///< workload-only end-to-end figures (lineage_recall)
  std::vector<SpanRecord> spans;  ///< merged spans of a traced call
};

struct AramcoSize {
  std::size_t hosts = 250;
};
Iteration run_aramco_wipe(const RunConfig& config, const AramcoSize& size = {});

struct OutbreakSize {
  std::size_t sites = 48;
  std::size_t hosts_per_site = 400;
};
Iteration run_outbreak_sharded(const RunConfig& config,
                               const OutbreakSize& size = {});

struct StormSize {
  std::size_t shards = 8;
  std::size_t clients_per_shard = 20000;
  /// Simulated hours of beaconing; every client beacons about hourly.
  int hours = 6;
};
Iteration run_cnc_storm(const RunConfig& config, const StormSize& size = {});

struct PileSize {
  std::size_t kits = 128;
  std::size_t variants_per_kit = 40;
};
Iteration run_attribution_pile(const RunConfig& config,
                               const PileSize& size = {});

/// Outputs pinned for the default seed (1) and a held-out seed (2) of the
/// named workload at its default size; null for other seeds.
const Outputs* pinned_outputs(std::string_view workload, std::uint64_t seed);

/// Seconds between two steady_clock points.
double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b);

/// Total seconds spent in spans named `name` (0 when none ran).
double span_seconds(const std::map<std::string, SpanTotals>& spans,
                    const std::string& name);

/// Scheduler telemetry shared by the two sharded workloads: rounds, cross
/// shard messages, events per round and, when traced, busy/idle shares of
/// the workers over the "sim.window" spans (busy = inside "sim.event"
/// spans, the benchmark's callbacks).
void add_scheduler_metrics(const cyd::sim::ShardedScheduler::Report& report,
                           const RunConfig& config, std::size_t shards,
                           const std::vector<SpanRecord>& spans,
                           Metrics& layer);

}  // namespace perfbench
