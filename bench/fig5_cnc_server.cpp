// FIG-5 — "The Command and Control Server" (paper Fig. 5).
//
// Inside one box: the newsforyou dead-drop (ads / news / entries), the
// database tracking clients and panel auth, upload encryption that only the
// attack coordinator can open, the 30-minute purge of retrieved loot, and
// LogWiper. The paper quotes ~5.5GB of stolen data on one server in a week;
// our victims are scaled 1:100, so the shape to match is "gigabyte-class
// per week per server" after unscaling.

#include "bench_util.hpp"
#include "cnc/attack_center.hpp"
#include "core/user_behavior.hpp"
#include "malware/flame/flame.hpp"
#include "sim/sweep.hpp"

using namespace cyd;

namespace {

// Runs the week on one server and renders every section of the figure into
// `report` (the sweep item for this figure).
void run_server(benchutil::Report& report) {
  core::World world(0xf15);
  world.add_internet_landmarks();

  cnc::AttackCenter center(world.sim(), 0x10ad);
  cnc::CncServer server(world.sim(), "cc-3", {"newsforyou.example"},
                        center.upload_key());
  server.deploy(world.network());
  server.start_purge_task(30 * sim::kMinute);
  center.manage(server);

  malware::flame::FlameConfig config;
  config.default_domains = {"newsforyou.example"};
  config.collect_period = sim::hours(8);
  config.beacon_period = sim::hours(4);
  malware::flame::Flame flame(world.sim(), world.network(),
                              world.programs(), world.tracker(), config);
  flame.set_upload_key(center.upload_key());

  core::FleetSpec spec;
  spec.count = 100;
  spec.documents_per_host = 4;
  auto victims = core::make_office_fleet(world, spec);
  for (auto* host : victims) {
    core::schedule_document_work(world, *host, sim::days(1));
    flame.infect(*host, "targeted-drop");
  }

  // Operator workflow: commands down, loot up, every few hours.
  center.start_collection_task(sim::hours(3));
  world.sim().after(sim::days(1), [&] {
    center.push_command_all("module:jimmy:2", "improved scanner");
  });
  world.sim().after(sim::days(2), [&] {
    center.push_command_to(
        malware::flame::Flame::find(*victims[7])->client_id,
        "jimmy-fetch:docx", "");
  });

  world.sim().run_for(7 * sim::kDay);

  report.section("data flow through the dead-drop, one week");
  report.printf("GET_NEWS requests served    : %zu\n", server.get_news_count());
  report.printf("ADD_ENTRY uploads received  : %zu\n", server.upload_count());
  report.printf("ciphertext received         : %llu bytes (scaled 1:100 -> "
              "~%.2f GB real-world)\n",
              static_cast<unsigned long long>(server.total_upload_bytes()),
              static_cast<double>(server.total_upload_bytes()) * 100.0 / 1e9);
  report.printf("entries still on disk       : %zu (purge runs every 30 min "
              "after pickup)\n", server.entries().size());
  report.printf("clients in the database     : %zu\n",
              server.known_clients().size());
  report.printf("database rows total         : %zu across tables:",
              server.db().total_rows());
  for (const auto& table : server.db().table_names()) {
    report.printf(" %s", table.c_str());
  }
  report.printf("\naccess log lines            : %zu\n",
              server.access_log().size());

  report.section("role separation (who can read the loot)");
  // The operator sees ciphertext; only the coordinator key opens it.
  cnc::CncKeyPair operator_guess = cnc::CncKeyPair::generate(0xbad);
  std::size_t operator_reads = 0, coordinator_reads = center.archive().size();
  for (const auto& entry : server.entries()) {
    if (cnc::decrypt(operator_guess, entry.blob)) ++operator_reads;
  }
  report.printf("server admin / panel operator decrypts: %zu of %zu blobs\n",
              operator_reads, server.entries().size());
  report.printf("attack coordinator decrypts           : %zu documents\n",
              coordinator_reads);

  report.section("targeted fetch (metadata-first policy)");
  std::size_t metadata = 0, content = 0;
  for (const auto& doc : center.archive()) {
    if (doc.name.rfind("jimmy:doc:", 0) == 0) {
      ++content;
    } else if (doc.name.rfind("jimmy:meta:", 0) == 0) {
      ++metadata;
    }
  }
  report.printf("document metadata records   : %zu\n", metadata);
  report.printf("full documents (on order)   : %zu (only the jimmy-fetch "
              "target uploads content)\n", content);

  report.section("client types (Flame was one of four platform clients)");
  // Non-Flame clients of the same platform phone the same dead-drop.
  for (const char* type : {cnc::kClientTypeSp, cnc::kClientTypeSpe,
                           cnc::kClientTypeIp}) {
    net::HttpRequest poll;
    poll.host = "newsforyou.example";
    poll.path = "/newsforyou";
    poll.params = {{"cmd", "GET_NEWS"},
                   {"client", std::string("client-") + type},
                   {"type", type}};
    poll.client = std::string("unknown-") + type;
    server.handle(poll);
  }
  std::map<std::string, int> by_type;
  for (const auto& [id, row] : server.db().table("clients").rows()) {
    ++by_type[row.at("type")];
  }
  for (const auto& [type, count] : by_type) {
    report.printf("  CLIENT_TYPE_%-4s %d clients\n", type.c_str(), count);
  }

  report.section("LogWiper.sh");
  server.run_log_wiper();
  report.printf("after the wipe: log lines=%zu, wiped=%s, database rows=%zu "
              "(tables survive; logs do not)\n",
              server.access_log().size(),
              server.logs_wiped() ? "yes" : "no", server.db().total_rows());
}

void reproduce() {
  auto reports = sim::Sweep::map_items(std::vector<int>{0}, [](int) {
    benchutil::Report report;
    run_server(report);
    return report;
  });
  reports[0].dump();
}

void BM_AddEntry(benchmark::State& state) {
  sim::Simulation simulation;
  cnc::AttackCenter center(simulation, 1);
  cnc::CncServer server(simulation, "cc", {"d"}, center.upload_key());
  const auto blob = cnc::encrypt_for(center.upload_key(),
                                     std::string(1024, 'x'));
  net::HttpRequest request;
  request.path = "/newsforyou";
  request.params = {{"cmd", "ADD_ENTRY"}, {"client", "v"}, {"type", "FL"}};
  request.body = cnc::serialize_entry_upload("doc", blob);
  for (auto _ : state) {
    auto response = server.handle(request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_AddEntry);

void BM_CoordinatorDecrypt(benchmark::State& state) {
  auto key = cnc::CncKeyPair::generate(7);
  const auto blob =
      cnc::encrypt_for(cnc::public_half(key), std::string(64 * 1024, 'y'));
  for (auto _ : state) {
    auto plain = cnc::decrypt(key, blob);
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK(BM_CoordinatorDecrypt);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header("FIG-5: inside a Flame C&C server",
                    "Figure 5 — newsforyou dead-drop, database, purge, keys");
  if (!benchutil::has_flag(argc, argv, "--no-repro")) reproduce();
  return benchutil::run_benchmarks(argc, argv);
}
