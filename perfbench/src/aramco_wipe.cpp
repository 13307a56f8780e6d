// aramco_wipe: the library's own Shamoon model over a materialized office
// fleet on the main-thread Simulation — the paper's Fig. 6 detonation at a
// size that runs in about a second. Time goes to net (scan_subnet on every
// spread tick), malware/pe (TrkSvr builds per spread attempt) and winsys
// writes; the sharded scheduler, cnc and analysis are not touched.

#include <chrono>
#include <cstdint>
#include <vector>

#include "cnc/pipeline.hpp"
#include "core/scenario.hpp"
#include "core/world.hpp"
#include "malware/shamoon/shamoon.hpp"
#include "pki/signing.hpp"
#include "sim/sweep.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cyd;
using Clock = std::chrono::steady_clock;

/// Host-time gap between consecutive executed events, collected by the
/// queue's execute observer in the traced run.
struct GapObserver {
  Clock::time_point last{};
  bool started = false;
  std::vector<double> gaps;

  static void on_execute(void* ctx, sim::TimePoint, std::uint64_t,
                         std::uint32_t) {
    auto* self = static_cast<GapObserver*>(ctx);
    const auto now = Clock::now();
    if (self->started) {
      self->gaps.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - self->last)
              .count()));
    }
    self->last = now;
    self->started = true;
  }
};

std::uint64_t trace_digest(const sim::TraceLog& log) {
  std::uint64_t h = cnc::kChecksumBasis;
  log.for_each([&h](const sim::TraceEventRef& e) {
    h = cnc::checksum_mix(h, static_cast<std::uint64_t>(e.time()));
    h = cnc::checksum_mix(h, static_cast<std::uint64_t>(e.category()));
    h = cnc::checksum_mix_bytes(h, e.actor());
    h = cnc::checksum_mix_bytes(h, e.action());
    h = cnc::checksum_mix_bytes(h, e.detail());
  });
  return h;
}

}  // namespace

Iteration run_aramco_wipe(const RunConfig& config, const AramcoSize& size) {
  std::optional<Tracer> traced;
  if (config.trace) traced.emplace(0);
  Tracer* tracer = traced ? &*traced : nullptr;
  const std::size_t main = 0;
  Iteration it;
  const auto setup_start = Clock::now();

  core::World world(sim::derive_seed(config.seed, 0xa3a));
  world.add_internet_landmarks();
  std::vector<winsys::Host*> fleet;
  {
    Scope span(tracer, main, "core.fleet_build");
    core::FleetSpec spec;
    spec.count = size.hosts;
    spec.name_prefix = "aramco";
    spec.documents_per_host = 3;
    fleet = core::make_office_fleet(world, spec);
  }

  malware::shamoon::ShamoonConfig shamoon_config;
  shamoon_config.kill_date = sim::make_date(2012, 8, 15, 8, 8);
  shamoon_config.spread_period = sim::minutes(20);
  shamoon_config.rng_seed = sim::derive_seed(config.seed, 0x5a);
  malware::shamoon::Shamoon shamoon(world.sim(), world.network(),
                                    world.programs(), world.tracker(),
                                    shamoon_config);
  shamoon.deploy_reporter_sink(world.network());
  {
    // The wiper's raw-disk driver is legitimately signed; every workstation
    // trusts its commercial root, as on the real fleet.
    Scope span(tracer, main, "pki.fleet_trust");
    const std::uint64_t key_seed = sim::derive_seed(config.seed, 0xe1d);
    auto ca = pki::CertificateAuthority::create_root(
        "Commercial Root CA", pki::HashAlgorithm::kStrong64, 0,
        sim::days(20000), key_seed);
    const auto key = pki::KeyPair::generate(key_seed ^ 0x99);
    const auto cert = ca.issue("EldoS Corporation", pki::kUsageCodeSigning,
                               pki::HashAlgorithm::kStrong64, 0,
                               sim::days(20000), key);
    for (auto* host : fleet) {
      host->cert_store().add(ca.certificate());
      host->trust_store().trust_root(ca.certificate().serial);
    }
    auto driver = pe::Builder{}
                      .program(malware::shamoon::Shamoon::kDriverProgram)
                      .filename("drdisk.sys")
                      .build();
    pki::sign_image(driver, cert, key);
    shamoon.set_disk_driver(driver);
  }
  world.sim().run_until(sim::make_date(2012, 8, 1));
  const std::size_t patient_zero = config.seed % fleet.size();

  const auto run_start = Clock::now();
  it.setup_s = seconds_between(setup_start, run_start);

  GapObserver gaps;
  if (tracer) {
    gaps.gaps.reserve(1u << 20);
    world.sim().queue().set_execute_observer(&GapObserver::on_execute, &gaps);
  }
  const sim::EventQueue::Stats before = world.sim().queue().stats();
  shamoon.infect(*fleet[patient_zero], "spear-phish");
  {
    Scope span(tracer, main, "sim.spread_window");
    world.sim().run_until(sim::make_date(2012, 8, 15, 8, 7));
  }
  {
    Scope span(tracer, main, "sim.wipe_window");
    world.sim().run_until(sim::make_date(2012, 8, 16));
  }
  const auto run_end = Clock::now();
  world.sim().queue().set_execute_observer(nullptr, nullptr);
  it.run_s = seconds_between(run_start, run_end);

  const sim::EventQueue::Stats after = world.sim().queue().stats();
  const double executed = static_cast<double>(after.executed - before.executed);
  it.work = executed;

  const std::size_t infected = world.tracker().infected_count("shamoon");
  const std::size_t wiped = shamoon.hosts_wiped();
  const std::size_t reports = shamoon.reports().size();
  const std::size_t unbootable = world.count_unbootable();
  const auto& hits = world.network().domain_hits();
  const auto hit = hits.find(shamoon_config.reporter_host);
  const std::size_t reporter_requests = hit == hits.end() ? 0 : hit->second;

  // Every workstation is reachable over the open shares, so the whole
  // fleet must be infected, wiped, bricked and reported by Aug 16.
  it.attempted = fleet.size();
  for (auto* host : fleet) {
    const auto* infection = malware::shamoon::Shamoon::find(*host);
    if (infection == nullptr || !infection->wiped || !infection->reported) {
      ++it.failed;
    }
  }
  if (infected != fleet.size() || wiped != infected || reports != wiped ||
      unbootable != wiped || reporter_requests != reports) {
    ++it.failed;
  }
  it.outputs = {{"infected", infected},
                {"hosts_wiped", wiped},
                {"reports", reports},
                {"trace_digest", trace_digest(world.sim().trace())}};

  Metrics& m = it.layer;
  m["sim.events_executed"] = executed;
  m["sim.events_scheduled"] =
      static_cast<double>(after.scheduled - before.scheduled);
  m["sim.events_cancelled"] =
      static_cast<double>(after.cancelled - before.cancelled);
  m["sim.peak_pending"] = static_cast<double>(after.peak_pending);
  m["malware.infected"] = static_cast<double>(infected);
  m["malware.hosts_wiped"] = static_cast<double>(wiped);
  m["malware.reports"] = static_cast<double>(reports);
  m["net.reporter_requests"] = static_cast<double>(reporter_requests);
  m["winsys.unbootable"] = static_cast<double>(unbootable);
  if (tracer) {
    const Tail p50 = tail(gaps.gaps, 50.0);
    const Tail p99 = tail(gaps.gaps, 99.0);
    m["sim.event_gap_ns_p50"] = p50.value;
    m["sim.event_gap_ns_p99"] = p99.value;
    m["sim.event_gap_p99_pct"] = p99.percentile;
    m["sim.event_gap_samples"] = static_cast<double>(p99.samples);
    it.spans = tracer->take_merged();
    const auto spans = aggregate(it.spans);
    m["core.fleet_build_s"] = span_seconds(spans, "core.fleet_build");
    m["pki.fleet_trust_s"] = span_seconds(spans, "pki.fleet_trust");
    m["sim.spread_window_s"] = span_seconds(spans, "sim.spread_window");
    m["sim.wipe_window_s"] = span_seconds(spans, "sim.wipe_window");
    // ROADMAP's gprof profile predicts the spread window dominates the run.
    m["sim.spread_window_share"] = m["sim.spread_window_s"] / it.run_s;
  }
  return it;
}

}  // namespace perfbench
