// perfbench: runs one workload for a fixed time and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file>]
//
// The workload is called repeatedly until --seconds have passed (at least
// kMinIterations times); every call builds its inputs from the seed, so
// set-up is measured as often as the run. With --trace 0 the last line is
// the end-to-end JSON; with --trace 1 untraced and traced calls alternate
// and the last line carries the per-layer metrics plus the tracing
// overhead (median traced run_s over median untraced run_s).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinIterations = 3;
/// A traced call keeps (and --spans writes) at most this many spans, in
/// merge order; the rest are counted in trace.spans.
constexpr std::size_t kMaxWrittenSpans = 200000;

struct Workload {
  const char* name;
  Iteration (*run)(const RunConfig&);
  /// The workload's own name for ops_per_s.
  const char* ops_name;
  bool uses_sweep_pool;
};

const Workload kWorkloads[] = {
    {"aramco_wipe", [](const RunConfig& c) { return run_aramco_wipe(c); },
     "sim_events_per_s", false},
    {"outbreak_sharded",
     [](const RunConfig& c) { return run_outbreak_sharded(c); },
     "sim_events_per_s", false},
    {"cnc_storm", [](const RunConfig& c) { return run_cnc_storm(c); },
     "requests_per_s", false},
    {"attribution_pile",
     [](const RunConfig& c) { return run_attribution_pile(c); },
     "specimens_per_s", true},
};

/// Every per-layer metric, in BENCHMARK.json order. A workload reports 0
/// for the metrics of layers it does not run.
const char* const kPerLayer[] = {
    "core.fleet_build_s", "pki.fleet_trust_s", "sim.spread_window_s",
    "sim.wipe_window_s", "sim.spread_window_share", "sim.events_executed",
    "sim.events_scheduled", "sim.events_cancelled", "sim.peak_pending",
    "sim.event_gap_ns_p50", "sim.event_gap_ns_p99", "sim.event_gap_p99_pct",
    "sim.event_gap_samples", "malware.infected", "malware.hosts_wiped",
    "malware.reports", "net.reporter_requests", "winsys.unbootable",
    "core.add_fleet_s", "winsys.bytes_per_host", "winsys.fs_write_ns",
    "winsys.fs_write_count", "winsys.registry_write_ns",
    "winsys.registry_write_count", "pki.verify_ns", "pki.verify_count",
    "sim.rounds", "sim.cross_shard_messages", "sim.events_per_round",
    "sim.shard_busy_share", "sim.shard_idle_share", "sim.shard_imbalance",
    "cnc.handle_ns_p50", "cnc.handle_ns_p99", "cnc.handle_p99_pct",
    "cnc.handle_samples", "cnc.handled", "cnc.rejected", "cnc.uploads",
    "cnc.upload_bytes", "cnc.pickup_s", "cnc.purge_s", "cnc.merge_s",
    "cnc.purge_scanned", "cnc.purge_useful_ratio", "pe.build_s",
    "analysis.dissect_s", "analysis.extract_s", "analysis.sketch_s",
    "analysis.lsh_s", "analysis.confirm_cluster_s", "analysis.candidate_pairs",
    "analysis.confirmed_edges", "analysis.candidate_precision",
    "analysis.reduction", "analysis.dict_entries", "trace.overhead_ratio",
    "trace.spans",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::string_view v = value;
      if (v != "0" && v != "1") usage("bad --trace");
      args.trace = v == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage("unknown flag");
    }
  }
  return args;
}

/// Compares `outputs` with the pinned values for `seed`, or with the first
/// call's outputs for seeds that have none: the same seed must reproduce.
bool outputs_match(const Workload& w, std::uint64_t seed,
                   const Outputs& outputs, const Outputs& first) {
  const Outputs* expected = pinned_outputs(w.name, seed);
  return outputs == (expected ? *expected : first);
}

void print_outputs(const Outputs& outputs) {
  std::printf("outputs:");
  for (const auto& [name, value] : outputs) {
    std::printf(" %s=%llu", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
}

std::vector<double> collect(const std::vector<Iteration>& its,
                            const std::function<double(const Iteration&)>& f) {
  std::vector<double> out;
  out.reserve(its.size());
  for (const auto& it : its) out.push_back(f(it));
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

const char* unit_of(std::string_view name) {
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_ns") || name.ends_with("_ns_p50") ||
      name.ends_with("_ns_p99")) {
    return "ns";
  }
  if (name.ends_with("_share") || name.ends_with("_ratio") ||
      name.ends_with("_precision") || name.ends_with("_imbalance") ||
      name.ends_with("reduction")) {
    return "ratio";
  }
  if (name.ends_with("_pct")) return "%";
  if (name.ends_with("bytes_per_host")) return "B";
  if (name.ends_with("upload_bytes")) return "B";
  return "count";
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown --workload");

  const unsigned cores = nproc();
  const unsigned workers = std::min(4u, cores);
  const unsigned sweep_workers =
      workload->uses_sweep_pool ? cyd::sim::default_sweep_runner().workers()
                                : 0;
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" scheduler_workers=%u "
              "sweep_pool_workers=%u\n",
              cores, cpu_model().c_str(), workers, sweep_workers);
  if (sweep_workers > cores) {
    std::printf("warning: the library's default sweep pool sizes itself to "
                "the hardware (%u threads) above nproc=%u\n",
                sweep_workers, cores);
  }

  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  std::vector<Iteration> plain, traced;
  Outputs first;
  bool have_first = false;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t threw = 0;
  bool next_traced = false;
  for (;;) {
    RunConfig config;
    config.seed = args.seed;
    config.workers = workers;
    config.mode = Mode::kSharded;
    config.trace = args.trace && next_traced;
    if (args.trace) next_traced = !next_traced;
    Iteration it;
    try {
      it = workload->run(config);
    } catch (const std::exception& e) {
      std::printf("error: workload threw: %s\n", e.what());
      it = Iteration{};
      ++threw;
    }
    if (!have_first && !it.outputs.empty()) {
      first = it.outputs;
      have_first = true;
      print_outputs(first);
    }
    // The output check is one more operation of every call; a call that
    // threw has no outputs and fails it.
    ++it.attempted;
    if (it.outputs.empty() ||
        !outputs_match(*workload, args.seed, it.outputs, first)) {
      ++it.failed;
      std::printf("error: output check failed\n");
      print_outputs(it.outputs);
    }
    attempted += it.attempted;
    failed += it.failed;
    if (config.trace) {
      it.layer["trace.spans"] = static_cast<double>(it.spans.size());
      if (it.spans.size() > kMaxWrittenSpans) {
        it.spans.resize(kMaxWrittenSpans);
        it.spans.shrink_to_fit();
      }
    }
    if (!it.outputs.empty()) {
      (config.trace ? traced : plain).push_back(std::move(it));
    }
    const bool enough = plain.size() >= kMinIterations &&
                        (!args.trace || traced.size() >= kMinIterations);
    if (Clock::now() >= deadline && (enough || threw >= kMinIterations)) break;
  }

  const double setup_s =
      median(collect(plain, [](const Iteration& i) { return i.setup_s; }));
  const double run_s =
      median(collect(plain, [](const Iteration& i) { return i.run_s; }));
  const double ops_per_s = median(collect(
      plain, [](const Iteration& i) { return i.work / i.run_s; }));
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("calls: %zu untraced, %zu traced\n", plain.size(), traced.size());
  std::printf("%-24s %16.6f s\n", "setup_s", setup_s);
  std::printf("%-24s %16.6f s\n", "run_s", run_s);
  std::printf("%-24s %16.1f 1/s\n", workload->ops_name, ops_per_s);
  std::printf("%-24s %16.1f MB\n", "peak_rss_mb", peak_rss_mb());
  std::printf("%-24s %16.6f ratio (%llu of %llu)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (!plain.empty() && plain.front().extra.count("lineage_recall")) {
    std::printf("%-24s %16.6f ratio\n", "lineage_recall",
                median(collect(plain, [](const Iteration& i) {
                  return i.extra.at("lineage_recall");
                })));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", setup_s, "s"},
               {"run_s", run_s, "s"},
               {"ops_per_s", ops_per_s, "1/s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
  } else {
    const double traced_run_s =
        median(collect(traced, [](const Iteration& i) { return i.run_s; }));
    const std::vector<SpanRecord> none;
    const std::vector<SpanRecord>& spans =
        traced.empty() ? none : traced.back().spans;
    for (const char* name : kPerLayer) {
      double value = 0.0;
      const std::string_view n = name;
      if (n == "trace.overhead_ratio") {
        value = run_s > 0.0 ? traced_run_s / run_s : 0.0;
      } else {
        value = median(collect(traced, [name](const Iteration& i) {
          const auto found = i.layer.find(name);
          return found == i.layer.end() ? 0.0 : found->second;
        }));
      }
      metrics.push_back({name, value, unit_of(name)});
      std::printf("%-30s %18.6f %s\n", name, value, unit_of(name));
    }
    if (args.workload == "aramco_wipe") {
      const double share = median(collect(traced, [](const Iteration& i) {
        return i.layer.at("sim.spread_window_share");
      }));
      std::printf("spread window dominates run: %s (%.1f%% of traced run_s)\n",
                  share > 0.5 ? "yes" : "no", 100.0 * share);
    }
    if (!args.spans_path.empty() && !traced.empty()) {
      if (!Tracer::write_tsv(args.spans_path, spans)) {
        std::printf("error: cannot write %s\n", args.spans_path.c_str());
        return 1;
      }
      std::printf("spans: wrote the first %zu of %.0f to %s\n", spans.size(),
                  traced.back().layer.at("trace.spans"),
                  args.spans_path.c_str());
    }
  }
  emit(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
