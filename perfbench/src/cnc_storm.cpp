// cnc_storm: Flame-style beacon clients against one cnc::RequestEngine per
// site shard on the site-sharded scheduler. Each client beacons about
// hourly: mostly GET_NEWS reads, a fifth ADD_ENTRY encrypted uploads
// (writes) and a fixed 3% of malformed requests. The run tiles the
// timeline into short run_until windows; between them the main thread is
// the attack center — it picks up new entries, decrypts them with the
// coordinator key and purges retrieved ones. Shards never exchange events,
// so this loads the scheduler's round barrier (many short windows, no
// cross-shard traffic) and the cnc wire, client index and pipeline. The
// client population is sized so each worker's client indexes outgrow L2.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "cnc/crypto.hpp"
#include "cnc/pipeline.hpp"
#include "cnc/wire.hpp"
#include "sim/sweep.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cyd;
using Clock = std::chrono::steady_clock;

constexpr sim::Duration kWindow = 10 * sim::kMinute;
constexpr sim::Duration kPurgeAge = 30 * sim::kMinute;

enum class Kind : std::uint8_t { kGetNews, kUpload, kMalformed };

/// Shard-owned client state and scratch requests; only that shard's events
/// touch it.
struct ShardClients {
  std::vector<std::string> ids;
  net::HttpRequest get_news;
  net::HttpRequest upload;
  net::HttpRequest malformed;
  std::uint64_t requests = 0;
  std::uint64_t malformed_sent = 0;
  std::uint64_t misjudged = 0;  // well-formed rejected or malformed accepted
};

std::string loot(std::string_view client, std::uint64_t beacon) {
  return "loot " + std::string(client) + " #" + std::to_string(beacon);
}

struct Storm {
  std::uint64_t seed = 0;
  sim::TimePoint horizon = 0;
  cnc::CncPublicKey upload_key;
  sim::ShardedScheduler& sched;
  std::vector<cnc::RequestEngine>& engines;
  std::vector<ShardClients>& shards;
  Tracer* tracer;

  void beacon(std::size_t shard, std::uint32_t client, std::uint32_t n);
};

void Storm::beacon(std::size_t shard, std::uint32_t client, std::uint32_t n) {
  Scope event(tracer, shard, "sim.event");
  ShardClients& sc = shards[shard];
  const std::string& id = sc.ids[client];
  const std::uint64_t client_seed = sim::derive_seed(
      seed, (static_cast<std::uint64_t>(shard) << 32) | client);
  const std::uint64_t draw = sim::derive_seed(client_seed, n);
  const std::uint64_t roll = draw % 1000;
  const Kind kind = roll < 200   ? Kind::kUpload
                    : roll < 230 ? Kind::kMalformed
                                 : Kind::kGetNews;
  net::HttpRequest* request = &sc.get_news;
  if (kind == Kind::kGetNews) {
    sc.get_news.params["client"] = id;
    sc.get_news.params["type"] = (draw >> 12) & 1 ? cnc::kClientTypeFl
                                                  : cnc::kClientTypeSp;
  } else if (kind == Kind::kUpload) {
    sc.upload.params["client"] = id;
    std::string name = "f";
    name += std::to_string(n);
    sc.upload.body = cnc::serialize_entry_upload(
        name, cnc::encrypt_for(upload_key, loot(id, n)));
    request = &sc.upload;
  } else {
    // Four malformations: unknown path, unknown verb, no client, and an
    // upload whose UPL1 frame ends before its name length.
    net::HttpRequest& bad = sc.malformed;
    bad.path = "/newsforyou";
    bad.params = {{"cmd", "ADD_ENTRY"}, {"client", id}};
    bad.body = "UPL1";
    switch ((draw >> 12) % 4) {
      case 0: bad.path = "/wrong"; break;
      case 1: bad.params["cmd"] = "DANCE"; break;
      case 2: bad.params.erase("client"); break;
      default: bad.body = "UPL1\x40"; break;
    }
    request = &bad;
    ++sc.malformed_sent;
  }
  const sim::TimePoint now = sched.now(shard);
  int status = 0;
  {
    Scope span(tracer, shard, "cnc.handle");
    status = engines[shard].handle(*request, now).status;
  }
  ++sc.requests;
  if ((status == 200) != (kind != Kind::kMalformed)) ++sc.misjudged;

  const sim::TimePoint next =
      now + sim::kHour - 5 * sim::kMinute +
      static_cast<sim::Duration>((draw >> 20) % (10 * sim::kMinute));
  if (next < horizon) {
    sched.schedule(shard, next,
                   [this, shard, client, n] { beacon(shard, client, n + 1); });
  }
}

/// Ring of 6-hour links: beacons never cross shards, the channels only give
/// the conservative windows a realistic lookahead.
sim::ShardPlan ring_plan(std::size_t shards) {
  sim::ShardPlan plan;
  for (std::size_t k = 0; k < shards; ++k) {
    plan.labels.push_back("site-" + std::to_string(k));
  }
  for (std::size_t k = 0; k < shards; ++k) {
    const auto a = static_cast<std::uint32_t>(k);
    const auto b = static_cast<std::uint32_t>((k + 1) % shards);
    plan.channels.push_back({a, b, 6 * sim::kHour});
    plan.channels.push_back({b, a, 6 * sim::kHour});
  }
  return plan;
}

}  // namespace

Iteration run_cnc_storm(const RunConfig& config, const StormSize& size) {
  std::optional<Tracer> traced;
  if (config.trace) traced.emplace(size.shards);
  Tracer* tracer = traced ? &*traced : nullptr;
  const std::size_t main = size.shards;
  Iteration it;
  const auto setup_start = Clock::now();

  const cnc::CncKeyPair coordinator =
      cnc::CncKeyPair::generate(sim::derive_seed(config.seed, 0xc2));
  std::vector<cnc::RequestEngine> engines(size.shards);
  std::vector<ShardClients> shards(size.shards);
  sim::ShardedScheduler sched(
      ring_plan(size.shards),
      sim::ShardedScheduler::Options{config.mode, config.workers});
  const sim::TimePoint horizon = size.hours * sim::kHour;
  Storm storm{config.seed, horizon,  cnc::public_half(coordinator),
              sched,       engines,  shards,
              tracer};
  for (std::size_t k = 0; k < size.shards; ++k) {
    engines[k].set_logging(false);
    engines[k].push_news(cnc::Payload{"mod-broadcast", "broadcast module"});
    ShardClients& sc = shards[k];
    sc.get_news.params = {{"cmd", "GET_NEWS"}, {"client", ""}, {"type", ""}};
    sc.get_news.path = "/newsforyou";
    sc.upload.method = "POST";
    sc.upload.path = "/newsforyou";
    sc.upload.params = {{"cmd", "ADD_ENTRY"}, {"client", ""}, {"type", "FL"}};
    sc.ids.reserve(size.clients_per_shard);
    sched.reserve(k, size.clients_per_shard);
    for (std::uint32_t c = 0; c < size.clients_per_shard; ++c) {
      sc.ids.push_back("c" + std::to_string(k) + "-" + std::to_string(c));
      const sim::TimePoint first = static_cast<sim::TimePoint>(
          sim::derive_seed(config.seed ^ 0xbeac, (k << 32) | c) % sim::kHour);
      sched.schedule(k, first, [&storm, k, c] { storm.beacon(k, c, 0); });
    }
  }

  const auto run_start = Clock::now();
  it.setup_s = seconds_between(setup_start, run_start);
  sim::ShardedScheduler::Report report;
  std::uint64_t purged = 0, decrypt_failures = 0;
  for (sim::TimePoint t = kWindow; t <= horizon; t += kWindow) {
    {
      Scope window(tracer, main, "sim.window");
      if (tracer) tracer->set_context(window.id());
      report = sched.run_until(t);
    }
    for (auto& engine : engines) {
      {
        Scope span(tracer, main, "cnc.pickup");
        for (const cnc::Entry& entry : engine.take_new_entries()) {
          const auto plain = cnc::decrypt(coordinator, entry.blob);
          const std::uint64_t beacon = std::stoull(entry.data_name.substr(1));
          if (!plain || *plain != loot(entry.client_id, beacon)) {
            ++decrypt_failures;
          }
        }
      }
      Scope span(tracer, main, "cnc.purge");
      purged += engine.purge_retrieved(t - kPurgeAge);
    }
  }
  cnc::StormMerge merged;
  {
    Scope span(tracer, main, "cnc.merge");
    merged = cnc::merge_storm(engines);
  }
  it.run_s = seconds_between(run_start, Clock::now());

  std::uint64_t malformed = 0, purge_scanned = 0;
  for (std::size_t k = 0; k < size.shards; ++k) {
    it.attempted += shards[k].requests;
    it.failed += shards[k].misjudged;
    malformed += shards[k].malformed_sent;
    purge_scanned += engines[k].scan_stats().total_purge_scanned;
  }
  it.failed += decrypt_failures;
  const cnc::RequestEngine::Counters& totals = merged.totals;
  const std::uint64_t handled =
      totals.get_news + totals.uploads + totals.rejected;
  if (handled != it.attempted || totals.rejected != malformed) ++it.failed;
  it.work = static_cast<double>(handled);
  it.outputs = {{"response_checksum", merged.response_checksum},
                {"state_checksum", merged.state_checksum}};

  Metrics& m = it.layer;
  m["cnc.handled"] = static_cast<double>(handled);
  m["cnc.rejected"] = static_cast<double>(totals.rejected);
  m["cnc.uploads"] = static_cast<double>(totals.uploads);
  m["cnc.upload_bytes"] = static_cast<double>(totals.upload_bytes);
  m["cnc.purge_scanned"] = static_cast<double>(purge_scanned);
  m["cnc.purge_useful_ratio"] =
      purge_scanned == 0 ? 0.0
                         : static_cast<double>(purged) /
                               static_cast<double>(purge_scanned);
  if (tracer) it.spans = tracer->take_merged();
  add_scheduler_metrics(report, config, size.shards, it.spans, m);
  if (tracer) {
    std::vector<double> handle_ns;
    handle_ns.reserve(handled);
    for (const SpanRecord& s : it.spans) {
      if (std::string_view(s.name) == "cnc.handle") {
        handle_ns.push_back(static_cast<double>(s.duration_ns()));
      }
    }
    const Tail p50 = tail(handle_ns, 50.0);
    const Tail p99 = tail(handle_ns, 99.0);
    m["cnc.handle_ns_p50"] = p50.value;
    m["cnc.handle_ns_p99"] = p99.value;
    m["cnc.handle_p99_pct"] = p99.percentile;
    m["cnc.handle_samples"] = static_cast<double>(p99.samples);
    const auto spans = aggregate(it.spans);
    m["cnc.pickup_s"] = span_seconds(spans, "cnc.pickup");
    m["cnc.purge_s"] = span_seconds(spans, "cnc.purge");
    m["cnc.merge_s"] = span_seconds(spans, "cnc.merge");
  }
  return it;
}

}  // namespace perfbench
