#include <algorithm>
#include <string_view>

#include "workloads.hpp"

namespace perfbench {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double span_seconds(const std::map<std::string, SpanTotals>& spans,
                    const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_ns / 1e9;
}

void add_scheduler_metrics(const cyd::sim::ShardedScheduler::Report& report,
                           const RunConfig& config, std::size_t shards,
                           const std::vector<SpanRecord>& spans,
                           Metrics& layer) {
  layer["sim.rounds"] = static_cast<double>(report.rounds);
  layer["sim.cross_shard_messages"] =
      static_cast<double>(report.cross_shard_messages);
  layer["sim.events_per_round"] =
      report.rounds == 0 ? 0.0
                         : static_cast<double>(report.executed) /
                               static_cast<double>(report.rounds);
  if (!config.trace) return;

  // Capacity is the window wall time times the threads that could run
  // events in it; whatever the callbacks did not use is idle (barrier wait,
  // outbox flush, queue overhead).
  double window_ns = 0.0;
  for (const auto& s : spans) {
    if (s.buffer() == shards && std::string_view(s.name) == "sim.window") {
      window_ns += static_cast<double>(s.duration_ns());
    }
  }
  const unsigned threads = config.mode == Mode::kSharded ? config.workers : 1;
  const std::vector<double> busy = busy_by_buffer(spans, "sim.event", shards);
  double total = 0.0, peak = 0.0;
  for (const double b : busy) {
    total += b;
    peak = std::max(peak, b);
  }
  const double capacity = window_ns * threads;
  const double busy_share = capacity > 0.0 ? total / capacity : 0.0;
  layer["sim.shard_busy_share"] = busy_share;
  layer["sim.shard_idle_share"] = 1.0 - busy_share;
  const double mean = shards == 0 ? 0.0 : total / static_cast<double>(shards);
  layer["sim.shard_imbalance"] = mean > 0.0 ? peak / mean : 0.0;
}

}  // namespace perfbench
