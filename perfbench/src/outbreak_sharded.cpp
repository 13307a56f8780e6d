// outbreak_sharded: a worm written here, spreading through hub-and-spoke
// sites of image-backed (copy-on-write) hosts on the site-sharded
// scheduler, hopping sites only through ShardedScheduler::send. Each new
// victim does three shard-safe library calls (DESIGN.md §9): it verifies
// the signed dropper against the host's image-shared PKI stores, writes the
// dropper into its filesystem delta and adds an autorun registry value;
// afterwards it checks in every ~6 h (re-verify, registry stamp). It loads
// sim (sharded rounds, keyed events) and winsys/COW, and never
// touches net::Stack — the workload a scan_subnet fix must leave unchanged.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cnc/pipeline.hpp"
#include "core/world.hpp"
#include "pe/image.hpp"
#include "pki/signing.hpp"
#include "sim/sweep.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cyd;
using Clock = std::chrono::steady_clock;

constexpr const char* kRunKey =
    "HKLM\\Software\\Microsoft\\Windows\\CurrentVersion\\Run";
constexpr sim::TimePoint kHorizon = 14 * sim::kDay;

struct SiteState {
  std::size_t first_host = 0;  // index into World::hosts()
  std::uint64_t infected = 0;
  std::uint64_t attempts = 0;
  std::uint64_t check_ins = 0;
  std::uint64_t strain = 0;  // rolling infection hash
  std::uint64_t failed = 0;  // verify rejected or write refused
  std::vector<std::uint8_t> hit;
  std::vector<std::uint32_t> neighbors;
};

struct Outbreak {
  std::size_t hosts_per_site = 0;
  const std::vector<winsys::Host*>& hosts;
  sim::ShardedScheduler& sched;
  std::vector<SiteState>& sites;
  const pe::Image& dropper;
  const common::Bytes& dropper_bytes;
  const winsys::Path& drop_path;
  Tracer* tracer;

  void infect(std::size_t site, std::size_t offset);
  void check_in(std::size_t site, std::size_t offset, std::uint32_t n);
  void schedule_check_in(std::size_t site, std::size_t offset,
                         std::uint32_t n);
  void verify(SiteState& s, const winsys::Host& victim, std::size_t site);
};

void Outbreak::schedule_check_in(std::size_t site, std::size_t offset,
                                 std::uint32_t n) {
  const std::uint64_t draw =
      sim::derive_seed(sites[site].first_host + offset, n);
  const sim::TimePoint at = sched.now(site) + 6 * sim::kHour +
                            static_cast<sim::Duration>(draw % sim::kHour);
  if (at < kHorizon) {
    sched.schedule(site, at,
                   [this, site, offset, n] { check_in(site, offset, n); });
  }
}

void Outbreak::verify(SiteState& s, const winsys::Host& victim,
                      std::size_t site) {
  Scope span(tracer, site, "pki.verify");
  if (!pki::verify_image(dropper, victim.cert_store(), victim.trust_store(),
                         sched.now(site))
           .valid()) {
    ++s.failed;
  }
}

/// Persistence: an infected host re-verifies the dropper, as an update
/// check would, and stamps its registry with the check-in count.
void Outbreak::check_in(std::size_t site, std::size_t offset, std::uint32_t n) {
  Scope event(tracer, site, "sim.event");
  SiteState& s = sites[site];
  ++s.check_ins;
  winsys::Host& victim = *hosts[s.first_host + offset];
  verify(s, victim, site);
  {
    Scope span(tracer, site, "winsys.registry_write");
    victim.registry().set(kRunKey, "wrm_seen", n);
  }
  schedule_check_in(site, offset, n + 1);
}

/// One infection attempt on `offset` within `site`, on that site's shard.
/// Every decision is a function of per-site counters, so both scheduler
/// modes issue the same schedule/send calls in the same order.
void Outbreak::infect(std::size_t site, std::size_t offset) {
  Scope event(tracer, site, "sim.event");
  SiteState& s = sites[site];
  ++s.attempts;
  const bool fresh = s.hit[offset] == 0;
  if (fresh) {
    s.hit[offset] = 1;
    ++s.infected;
    s.strain ^= sim::derive_seed(site, offset) + 0x9e37u * s.infected;
    winsys::Host& victim = *hosts[s.first_host + offset];
    const sim::TimePoint now = sched.now(site);
    verify(s, victim, site);
    {
      Scope span(tracer, site, "winsys.fs_write");
      if (!victim.fs().write_file(drop_path, dropper_bytes, now)) ++s.failed;
    }
    {
      Scope span(tracer, site, "winsys.registry_write");
      victim.registry().set(kRunKey, "wrm", drop_path.str());
    }
    schedule_check_in(site, offset, 0);
  }
  if (s.infected < hosts_per_site && s.attempts < 4 * hosts_per_site) {
    const int fanout = fresh ? 2 : 1;
    for (int k = 0; k < fanout; ++k) {
      const std::uint64_t draw = sim::derive_seed(s.strain + s.attempts, k);
      const auto next = static_cast<std::size_t>(draw % hosts_per_site);
      const auto delay =
          sim::minutes(20) +
          static_cast<sim::Duration>(draw >> 40u) % sim::hours(8);
      sched.schedule(site, sched.now(site) + delay,
                     [this, site, next] { infect(site, next); });
    }
  }
  if (fresh && s.infected % 48 == 1 && !s.neighbors.empty()) {
    const std::uint64_t draw = sim::derive_seed(s.strain, 0x5eed);
    const std::uint32_t to = s.neighbors[draw % s.neighbors.size()];
    const auto there = static_cast<std::size_t>((draw >> 32u) % hosts_per_site);
    const auto jitter = static_cast<sim::Duration>(draw % sim::hours(2));
    sched.send(site, to, jitter, [this, to, there] { infect(to, there); });
  }
}

/// Hub-and-spoke WAN: the first min(8, sites) sites are fully meshed hubs
/// at 12 h, every other site hangs off hub (site % hubs) at 6 h. Names are
/// zero-padded so site-name order (the shard order) equals build order.
std::vector<core::FleetHandle> build_sites(core::World& world,
                                           const OutbreakSize& size) {
  std::vector<core::FleetHandle> fleets(size.sites);
  std::vector<std::string> names(size.sites);
  for (std::size_t s = 0; s < size.sites; ++s) {
    char name[24];
    std::snprintf(name, sizeof(name), "org%04zu", s);
    names[s] = name;
    fleets[s] = world.add_fleet(winsys::HostArchetype::kOfficePc,
                                size.hosts_per_site, names[s]);
  }
  const std::size_t hubs = std::min<std::size_t>(8, size.sites);
  for (std::size_t s = hubs; s < size.sites; ++s) {
    world.network().link_sites(names[s], names[s % hubs], sim::hours(6));
  }
  for (std::size_t a = 0; a < hubs; ++a) {
    for (std::size_t b = a + 1; b < hubs; ++b) {
      world.network().link_sites(names[a], names[b], sim::hours(12));
    }
  }
  return fleets;
}

}  // namespace

Iteration run_outbreak_sharded(const RunConfig& config,
                               const OutbreakSize& size) {
  std::optional<Tracer> traced;
  if (config.trace) traced.emplace(size.sites);
  Tracer* tracer = traced ? &*traced : nullptr;
  const std::size_t main = size.sites;
  Iteration it;
  const auto setup_start = Clock::now();

  core::World world(sim::derive_seed(config.seed, 0x0b7));
  std::vector<core::FleetHandle> fleets;
  std::size_t heap_before = 0, heap_after = 0;
  {
    Scope span(tracer, main, "core.add_fleet");
    world.archetype_image(winsys::HostArchetype::kOfficePc);
    heap_before = heap_in_use();
    fleets = build_sites(world, size);
    heap_after = heap_in_use();
  }
  const std::vector<winsys::Host*>& hosts = world.hosts();

  // The dropper poses as a Windows Update binary, so it verifies against
  // the Microsoft landscape every archetype image already carries.
  sim::Rng rng(sim::derive_seed(config.seed, 0xd0));
  common::Bytes body(1024, '\0');
  for (auto& c : body) c = static_cast<char>(rng.uniform_int(0, 255));
  pe::Image dropper = pe::Builder{}
                          .program("perfbench.worm")
                          .filename("~wrm.exe")
                          .section(".text", body, true)
                          .import("kernel32.dll", {"CreateFileW", "WriteFile"})
                          .build();
  pki::sign_image(dropper, world.microsoft().update_signing_cert(),
                  world.microsoft().update_signing_key());
  const common::Bytes dropper_bytes = dropper.serialize();
  const winsys::Path drop_path("c:\\windows\\temp\\~wrm.exe");

  const sim::ShardPlan plan = world.shard_plan();
  sim::ShardedScheduler sched(
      plan, sim::ShardedScheduler::Options{config.mode, config.workers});
  std::vector<SiteState> sites(size.sites);
  for (std::size_t s = 0; s < size.sites; ++s) {
    sites[s].first_host = fleets[s].first;
    sites[s].strain = sim::derive_seed(config.seed ^ 0x57a1, s);
    sites[s].hit.assign(size.hosts_per_site, 0);
  }
  for (const sim::ShardChannel& c : plan.channels) {
    sites[c.from].neighbors.push_back(c.to);
  }
  Outbreak outbreak{size.hosts_per_site, hosts,         sched,     sites,
                    dropper,             dropper_bytes, drop_path, tracer};
  // A coordinated drop: patient zero lands in every site at a seed-chosen
  // host and time in the first two days, so each site saturates well
  // before the horizon and the run's size hardly depends on the seed.
  for (std::size_t site = 0; site < size.sites; ++site) {
    const std::uint64_t draw = sim::derive_seed(config.seed, site);
    const std::size_t host = draw % size.hosts_per_site;
    const sim::TimePoint at = static_cast<sim::TimePoint>(
        (draw >> 32) % (2 * sim::kDay));
    sched.schedule(site, at,
                   [&outbreak, site, host] { outbreak.infect(site, host); });
  }

  const auto run_start = Clock::now();
  it.setup_s = seconds_between(setup_start, run_start);
  sim::ShardedScheduler::Report report;
  {
    Scope window(tracer, main, "sim.window");
    if (tracer) tracer->set_context(window.id());
    report = sched.run_until(kHorizon);
  }
  it.run_s = seconds_between(run_start, Clock::now());
  it.work = static_cast<double>(report.executed);

  std::uint64_t site_digest = cnc::kChecksumBasis;
  std::uint64_t infected = 0;
  for (const SiteState& s : sites) {
    site_digest = cnc::checksum_mix(site_digest, s.infected);
    site_digest = cnc::checksum_mix(site_digest, s.attempts);
    site_digest = cnc::checksum_mix(site_digest, s.check_ins);
    site_digest = cnc::checksum_mix(site_digest, s.strain);
    infected += s.infected;
    it.attempted += s.attempts + s.check_ins;
    it.failed += s.failed;
  }
  std::uint64_t markers = 0;
  for (const auto* host : hosts) {
    if (host->fs().exists(drop_path)) ++markers;
  }
  if (markers != infected) ++it.failed;
  it.outputs = {{"trace_checksum", report.trace_checksum},
                {"site_digest", site_digest},
                {"markers", markers}};

  Metrics& m = it.layer;
  m["malware.infected"] = static_cast<double>(infected);
  m["winsys.bytes_per_host"] =
      static_cast<double>(heap_after - heap_before) /
      static_cast<double>(hosts.size());
  if (tracer) it.spans = tracer->take_merged();
  add_scheduler_metrics(report, config, size.sites, it.spans, m);
  if (tracer) {
    const auto spans = aggregate(it.spans);
    m["core.add_fleet_s"] = span_seconds(spans, "core.add_fleet");
    for (const char* name :
         {"winsys.fs_write", "winsys.registry_write", "pki.verify"}) {
      const auto found = spans.find(name);
      const SpanTotals t = found == spans.end() ? SpanTotals{} : found->second;
      m[std::string(name) + "_ns"] = t.total_ns;
      m[std::string(name) + "_count"] = static_cast<double>(t.count);
    }
  }
  return it;
}

}  // namespace perfbench
