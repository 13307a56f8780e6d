// EPIDEMIC-SCALING — the paper's campaigns at 1:1 scale on the
// template-image + copy-on-write host substrate.
//
// The fig/trend worlds run at 1:30 because the original winsys::Host owned a
// fully materialized filesystem/registry/PKI tree. With golden archetype
// images (winsys::HostImage) and per-host copy-on-write deltas, a host costs
// one empty delta until the campaign actually touches it, so the real
// numbers fit in memory: Stuxnet's ~100k Windows infections (paper §II) and
// the full ~9,000-centrifuge Natanz cascade hall (§II-D) instead of our
// 30-host stand-ins.
//
// Four passes:
//  (1) identity — the refactor contract. A fully-materialized twin and an
//      image-backed twin are pushed through the same mutation script and
//      must expose byte-identical state; then every existing fig/trend/
//      ablation/attribution repro output is re-run and checksummed against
//      the retained seed baselines (FNV-1a over the report bytes). Fatal on
//      any divergence: COW is an implementation detail, not a behaviour.
//  (2) trend-b shape at 1:1 — mass vs targeted posture over a 128-site,
//      102,400-host world (paper §V-B). The mass posture saturates ~100k
//      hosts and gets burned by the AV ecosystem; the targeted posture keeps
//      its foothold all quarter, exactly the 30-host curve writ large.
//  (3) trend-e shape at 1:1 — the USB courier-cadence race into an
//      air-gapped plant (§V-E), with the full 55-cascade / 9,020-centrifuge
//      Natanz site behind the gap and a nine-month sabotage campaign.
//  (4) memory — per-host heap for an image-backed fleet vs the same content
//      fully materialized per host. Gated >= 10x (fatal), exported as
//      bench_diff counters (`heap_per_host` ceiling, `cow_ratio` floor).
//
// The BM_* cases export `hosts_per_sec`, `heap_per_host` and `cow_ratio`;
// CI gates hosts_per_sec as a --floor and heap_per_host as a --ceiling.
//
// Pass --mega for the 10⁶-host world (1,250 sites), --print-checksums to
// re-emit the identity table after an intentional output change.

#include "bench_util.hpp"
#include "core/user_behavior.hpp"
#include "malware/stuxnet/stuxnet.hpp"
#include "repro_checksums.hpp"
#include "winsys/host_image.hpp"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

using namespace cyd;
using benchutil::fatal;
using benchutil::time_ms;

// ---------------------------------------------------------------------------
// Counting allocator hook: cumulative requested bytes, for the per-host
// heap measurements. Same precedent as tests/sim/event_queue_alloc_test.cpp;
// this binary owns its global operator new, so it stays out of the library.

namespace {
std::atomic<std::uint64_t> g_heap_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

constexpr const char* kFamily = malware::stuxnet::Stuxnet::kFamily;

/// VmRSS / VmHWM in kB from /proc/self/status (0 when unavailable) — for
/// reporting only; the gated numbers come from the deterministic heap hook.
std::size_t proc_status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    return static_cast<std::size_t>(
        std::strtoull(line.c_str() + std::strlen(key) + 1, nullptr, 10));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Identity pass 1/2: a materialized twin and an image-backed twin must stay
// indistinguishable through writes, overwrites, deletes, renames and
// registry edits.

void check_twin_equivalence() {
  sim::Simulation simulation;
  winsys::ProgramRegistry programs;
  const auto archetype = winsys::HostArchetype::kOfficePc;
  const auto image = winsys::make_archetype_image(archetype);

  winsys::Host cow(simulation, programs, "twin-cow", image);
  winsys::Host mat(simulation, programs, "twin-mat",
                   winsys::default_os(archetype));
  winsys::populate_archetype(archetype, mat.fs(), mat.registry());

  // The same mutation script against both substrates.
  const auto mutate = [](winsys::Host& host) {
    auto& fs = host.fs();
    const auto victims = fs.find_files(winsys::Path("c:\\windows\\fonts"));
    fs.write_file(winsys::Path("c:\\users\\staff\\notes.txt"),
                  "meeting notes", sim::hours(1));
    fs.write_file(winsys::Path("c:\\windows\\win.ini"),
                  "; rewritten by setup", sim::hours(2));
    fs.delete_file(victims.front(), sim::hours(3));
    fs.rename(victims.back(),
              winsys::Path("c:\\windows\\fonts\\renamed.ttf"), sim::hours(4));
    host.registry().set("hklm\\software\\vendor", "installed", "1");
    host.registry().set("hklm\\system\\currentcontrolset\\control",
                        "WaitToKillServiceTimeout", std::uint32_t{9000});
    host.registry().remove_key(
        "hklm\\system\\currentcontrolset\\services\\spooler");
  };
  mutate(cow);
  mutate(mat);

  const auto cow_files = cow.fs().all_files();
  const auto mat_files = mat.fs().all_files();
  if (cow_files.size() != mat_files.size()) {
    fatal("twin divergence: %zu vs %zu files", cow_files.size(),
          mat_files.size());
  }
  for (std::size_t i = 0; i < cow_files.size(); ++i) {
    if (cow_files[i].str() != mat_files[i].str() ||
        cow.fs().read_file(cow_files[i]) != mat.fs().read_file(mat_files[i])) {
      fatal("twin divergence at %s", cow_files[i].str().c_str());
    }
  }
  if (cow.registry().all_entries() != mat.registry().all_entries()) {
    fatal("twin divergence in the registry hive");
  }
  const auto& cow_tombs = cow.fs().volume('c')->tombstones();
  const auto& mat_tombs = mat.fs().volume('c')->tombstones();
  if (cow_tombs.size() != mat_tombs.size() ||
      (cow_tombs.size() > 0 &&
       (cow_tombs.front().rel_path != mat_tombs.front().rel_path ||
        cow_tombs.front().data != mat_tombs.front().data))) {
    fatal("twin divergence in delete tombstones");
  }
  std::printf("image-backed twin == materialized twin through the mutation "
              "script:\n%zu files byte-identical, registry hives equal, "
              "%zu tombstone(s) equal\n",
              cow_files.size(), cow_tombs.size());
}

// ---------------------------------------------------------------------------
// Identity pass 2/2: every retained repro output, re-run and checksummed
// against the golden table in repro_checksums.hpp.

void reproduce_identity(const std::string& exe_dir, bool print_checksums) {
  benchutil::section("identity: COW substrate vs materialized semantics");
  check_twin_equivalence();

  benchutil::section(
      "identity: retained repro outputs, re-run and checksummed");
  std::printf("%-28s %-10s %-18s %s\n", "bench", "bytes", "fnv1a-64",
              "verdict");
  std::size_t mismatches = 0;
  for (const auto& expected : repro::kSeedChecksums) {
    const std::string raw = repro::run_sibling(exe_dir, expected.bench);
    if (raw.empty()) {
      fatal("could not run %s/%s (build all bench targets first)",
            exe_dir.c_str(), expected.bench);
    }
    const std::string report = repro::strip_timing_lines(raw);
    const std::uint64_t got = repro::fnv1a64(report);
    if (print_checksums) {
      std::printf("    {\"%s\", 0x%016llxULL},\n", expected.bench,
                  static_cast<unsigned long long>(got));
      continue;
    }
    const bool match = got == expected.fnv64;
    if (!match) ++mismatches;
    std::printf("%-28s %-10zu 0x%016llx %s\n", expected.bench, report.size(),
                static_cast<unsigned long long>(got),
                match ? "identical" : "DIVERGED");
  }
  if (print_checksums) return;
  if (mismatches > 0) {
    fatal("%zu repro output(s) diverged from the seed baselines — the COW "
          "substrate must be bit-transparent",
          mismatches);
  }
  std::printf("\nall %zu retained fig/trend/ablation/attribution outputs are "
              "byte-identical through the image/COW refactor.\n",
              std::size(repro::kSeedChecksums));
}

// ---------------------------------------------------------------------------
// Trend-b shape at 1:1 (paper §V-B): mass vs targeted posture over a
// multi-site world. Stuxnet's own periodic spreading is parked beyond the
// horizon; the bench drives a deterministic per-site contact process and
// every victim takes the real infection footprint (dropper, signed rootkit
// drivers, service, observers) into its COW delta.

struct WeekRow {
  int week = 0;
  std::size_t victims = 0;
  std::size_t collateral = 0;
  bool sig_published = false;
};

struct EpiConfig {
  std::size_t sites = 128;
  std::size_t hosts_per_site = 800;
  bool targeted = false;
  /// Global victim count at which the outbreak lands on an analyst's desk
  /// (trend-b's 25-victim threshold, scaled to a 10⁵-host world).
  std::size_t escalation_threshold = 25'000;
  int weeks = 12;
};

struct EpiOutcome {
  std::size_t hosts = 0;
  std::size_t victims = 0;
  std::size_t target_hits = 0;
  std::size_t collateral = 0;
  std::size_t detections = 0;
  sim::Duration dwell = -1;
  std::vector<WeekRow> series;
  double build_ms = 0.0;
  double run_ms = 0.0;
};

EpiOutcome epidemic_run(const EpiConfig& cfg) {
  core::World world(cfg.targeted ? 0xeb1 : 0xeb2);
  EpiOutcome outcome;
  outcome.hosts = cfg.sites * cfg.hosts_per_site;

  // Hundreds of single-archetype office sites; the first eight double as the
  // regional WAN hubs (fully meshed), every other site hangs off its region.
  // bench/sharded_des_scaling drives this same topology through
  // sim::ShardedScheduler — the site layer built here is the shard map there
  // (World::shard_plan), and the WAN latencies are its lookahead. The shape
  // itself lives in benchutil::build_hub_spoke_fleet, shared by all three
  // scaling benches.
  std::vector<std::string> site_names;
  std::vector<core::FleetHandle> fleets;
  outcome.build_ms = time_ms([&] {
    auto fleet =
        benchutil::build_hub_spoke_fleet(world, cfg.sites, cfg.hosts_per_site);
    site_names = std::move(fleet.site_names);
    fleets = std::move(fleet.fleets);
  });

  malware::stuxnet::StuxnetConfig config;
  // The implant's own beacon/spread timers are parked beyond the horizon —
  // propagation is the bench's deterministic contact process below.
  config.beacon_period = sim::days(4000);
  config.spread_period = sim::days(4000);
  malware::stuxnet::Stuxnet implant(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  const auto& hosts = world.hosts();
  struct SiteState {
    std::size_t infected = 0;
    std::size_t next = 0;
  };
  std::vector<SiteState> states(cfg.sites);
  const auto infect_next = [&](std::size_t s, const char* vector) {
    SiteState& state = states[s];
    if (state.next >= cfg.hosts_per_site) return false;
    winsys::Host& victim = *hosts[fleets[s].first + state.next++];
    if (implant.infect(victim, vector)) ++state.infected;
    return true;
  };

  // Patient zero inside the target org either way (trend-b's spear-phish).
  infect_next(0, "spear-phish");

  bool exported = false;
  bool published = false;
  sim::TimePoint sig_live = -1;
  // Mass growth saturates a site in ~10 days; the targeted posture creeps
  // through the target org only, staying under the analysts' radar.
  const double rate = cfg.targeted ? 0.10 : 0.80;
  world.sim().every(sim::kDay, [&] {
    const bool burned = sig_live >= 0 && world.sim().now() >= sig_live;
    if (!burned) {
      for (std::size_t s = 0; s < cfg.sites; ++s) {
        if (states[s].infected == 0) continue;
        if (cfg.targeted && s != 0) continue;  // §V-B targeting discipline
        const auto fresh = static_cast<std::size_t>(
            std::ceil(static_cast<double>(states[s].infected) * rate));
        for (std::size_t k = 0; k < fresh; ++k) {
          if (!infect_next(s, "lateral-share")) break;
        }
      }
      if (!cfg.targeted && !exported &&
          world.tracker().infected_count(kFamily) >= 32) {
        // The outbreak leaves its birth org: every other site gets a
        // beachhead after the WAN route's propagation delay.
        exported = true;
        for (std::size_t t = 1; t < cfg.sites; ++t) {
          const auto route =
              world.network().route_between(site_names[0], site_names[t]);
          world.sim().after(route.latency, [&, t] {
            if (states[t].infected == 0) infect_next(t, "wan-beachhead");
          });
        }
      }
    }
    if (!published &&
        world.tracker().infected_count(kFamily) >= cfg.escalation_threshold) {
      // Noisy enough that a sample reaches an analyst; 3-day turnaround.
      published = true;
      sig_live = world.sim().now() + sim::days(3);
      world.sim().after(sim::days(3), [&] {
        outcome.detections = world.tracker().infected_count(kFamily);
        world.tracker().record(malware::CampaignEventKind::kDetection,
                               kFamily, "av-telemetry", world.sim().now());
      });
    }
  });

  const auto target_hits = [&] {
    std::size_t inside = 0;
    for (std::size_t i = 0; i < fleets[0].count; ++i) {
      if (malware::stuxnet::Stuxnet::find(*hosts[fleets[0].first + i])) {
        ++inside;
      }
    }
    return inside;
  };

  outcome.run_ms = time_ms([&] {
    for (int week = 1; week <= cfg.weeks; ++week) {
      world.sim().run_for(7 * sim::kDay);
      const std::size_t victims = world.tracker().infected_count(kFamily);
      outcome.series.push_back(
          WeekRow{week, victims, victims - target_hits(), published});
    }
  });

  outcome.victims = world.tracker().infected_count(kFamily);
  outcome.target_hits = target_hits();
  outcome.collateral = outcome.victims - outcome.target_hits;
  outcome.dwell = world.tracker().dwell_time(kFamily);
  return outcome;
}

void print_epidemic_series(const EpiOutcome& outcome) {
  std::printf("%-6s %-9s %-12s %-11s\n", "week", "victims", "collateral",
              "sig-found");
  for (const auto& row : outcome.series) {
    std::printf("%-6d %-9zu %-12zu %-11s\n", row.week, row.victims,
                row.collateral, row.sig_published ? "published" : "no");
  }
}

void reproduce_trend_b_at_scale() {
  // One core, sequentially: the whole point is that a 10⁵-host quarter now
  // runs in seconds without a sweep pool.
  const EpiConfig base;
  auto mass = epidemic_run(base);
  EpiConfig targeted_cfg = base;
  targeted_cfg.targeted = true;
  auto targeted = epidemic_run(targeted_cfg);

  std::printf("world: %zu sites x %zu hosts = %zu image-backed hosts "
              "(%zu-host LANs, 8 WAN hubs)\n",
              base.sites, base.hosts_per_site, mass.hosts, std::size_t{256});
  std::printf("build %.0f ms; mass quarter %.0f ms; targeted quarter %.0f ms "
              "(one core)\n",
              mass.build_ms, mass.run_ms, targeted.run_ms);

  benchutil::section("mass posture at 1:1 (spread everywhere, loudly)");
  print_epidemic_series(mass);
  benchutil::section("targeted posture at 1:1 (slow, target org only)");
  print_epidemic_series(targeted);

  benchutil::section("quarter summary (compare trend_b_targeting at 1:30)");
  std::printf("%-26s %-10s %-12s %-12s %-14s\n", "posture", "victims",
              "collateral", "detections", "dwell-time");
  const auto row = [](const char* label, const EpiOutcome& o) {
    const std::string dwell =
        o.dwell < 0 ? "undetected" : sim::format_duration(o.dwell);
    std::printf("%-26s %-10zu %-12zu %-12zu %-14s\n", label, o.victims,
                o.collateral, o.detections, dwell.c_str());
  };
  row("mass", mass);
  row("targeted", targeted);

  if (mass.victims < 90'000) {
    fatal("mass posture reached only %zu victims — expected the paper's "
          "~100k epidemic",
          mass.victims);
  }
  if (targeted.dwell >= 0 || targeted.collateral != 0) {
    fatal("targeted posture leaked outside the target org");
  }
  std::printf("\nexpected shape: identical to the 30-host trend-b curves — "
              "mass saturates ~100k hosts\nand burns on signature day; the "
              "targeted posture never leaves org0000 and is never\n"
              "detected. Same story, real campaign size.\n");
}

// ---------------------------------------------------------------------------
// Trend-e shape at 1:1 (paper §V-E): the courier-cadence race across an
// air gap, with the full Natanz site (55 cascades x 164 = 9,020 IR-1
// centrifuges, paper §II-D) on the far side and a 2,048-host contractor
// org on the near side.

struct NatanzOutcome {
  std::size_t contractor_infected = 0;
  bool office_crossed = false;
  bool gap_crossed = false;
  sim::Duration time_to_cross = -1;
  std::size_t cascades_injected = 0;
  std::size_t destroyed = 0;
  std::size_t total = 0;
  bool safety_tripped = false;
};

NatanzOutcome natanz_run(sim::Duration courier_cadence, int months,
                         benchutil::Report* report) {
  core::World world(0xe57);
  world.add_internet_landmarks();

  core::NatanzSpec spec;
  spec.cascade_count = 55;  // the full hall: 55 x 164 = 9,020 machines
  auto site = core::build_natanz_site(world, spec);

  core::FleetOptions contractor_options;
  contractor_options.vulns = {exploits::VulnId::kMs10_046_Lnk,
                              exploits::VulnId::kMs10_073_Eop};
  const auto contractor = world.add_fleet(
      winsys::HostArchetype::kEngineeringStation, 2048, "integrator",
      contractor_options);
  const auto& hosts = world.hosts();

  malware::stuxnet::StuxnetConfig config;
  config.beacon_period = sim::days(4000);
  config.spread_period = sim::days(4000);
  config.plc_timing.observe_window = sim::days(13);
  config.plc_timing.cover_duration = sim::days(27);
  malware::stuxnet::Stuxnet stuxnet(world.sim(), world.network(),
                                    world.programs(), world.s7_registry(),
                                    world.tracker(), config);

  // The campaign lands in the contractor org and creeps through it; the
  // courier engineer's workstation is one of the 2,048.
  stuxnet.infect(*hosts[contractor.first], "supply-chain-phish");
  std::size_t infected = 1;
  std::size_t next = 1;
  world.sim().every(sim::kDay, [&] {
    const auto fresh = static_cast<std::size_t>(
        std::ceil(static_cast<double>(infected) * 0.5));
    for (std::size_t k = 0; k < fresh && next < contractor.count; ++k) {
      if (stuxnet.infect(*hosts[contractor.first + next++], "lateral-share")) {
        ++infected;
      }
    }
  });

  // One stick shuttles between the courier's workstation, the Natanz office
  // and the air-gapped engineering laptop — the §V-E vector.
  auto& stick = world.add_usb("integrator-stick");
  core::schedule_usb_courier(
      world, stick,
      {hosts[contractor.first + 40], site.office[0], site.office[3],
       site.eng_laptop},
      courier_cadence);
  for (std::size_t c = 0; c < site.cascades.size(); ++c) {
    const auto project =
        site.step7->create_project("a2" + std::to_string(1 + c));
    core::schedule_engineering_work(world, *site.step7, project,
                                    site.cascades[c],
                                    sim::days(1) + sim::hours(2 * c));
  }

  for (int month = 1; month <= months; ++month) {
    world.sim().run_for(30 * sim::kDay);
    if (report == nullptr) continue;
    report->printf("%-7d %-9zu %-9zu %6zu/%-7zu %-8s\n", month,
                   world.tracker().infected_count(kFamily),
                   stuxnet.plc_strikes(), site.destroyed_centrifuges(),
                   site.total_centrifuges(),
                   site.any_safety_tripped() ? "TRIPPED" : "quiet");
  }

  NatanzOutcome outcome;
  outcome.contractor_infected = infected;
  outcome.office_crossed =
      malware::stuxnet::Stuxnet::find(*site.office[0]) != nullptr;
  if (auto* inf = malware::stuxnet::Stuxnet::find(*site.eng_laptop)) {
    outcome.gap_crossed = true;
    outcome.time_to_cross = inf->infected_at();
  }
  outcome.cascades_injected = stuxnet.plc_strikes();
  outcome.destroyed = site.destroyed_centrifuges();
  outcome.total = site.total_centrifuges();
  outcome.safety_tripped = site.any_safety_tripped();
  return outcome;
}

void reproduce_trend_e_at_scale() {
  benchutil::section(
      "air-gap crossing vs courier cadence (full 9,020-centrifuge plant, "
      "60 days)");
  std::printf("%-22s %-11s %-9s %-8s %-16s %-9s\n", "stick moves every",
              "contractor", "office", "gap", "time-to-cross", "injected");
  const std::vector<sim::Duration> cadences{sim::hours(8), sim::days(2),
                                            sim::days(7), sim::days(20)};
  for (const auto cadence : cadences) {
    const auto outcome = natanz_run(cadence, 2, nullptr);
    const std::string when =
        outcome.gap_crossed ? sim::format_duration(outcome.time_to_cross)
                            : "-";
    std::printf("%-22s %-11zu %-9s %-8s %-16s %zu/55\n",
                sim::format_duration(cadence).c_str(),
                outcome.contractor_infected,
                outcome.office_crossed ? "yes" : "no",
                outcome.gap_crossed ? "yes" : "no", when.c_str(),
                outcome.cascades_injected);
  }

  benchutil::section(
      "nine-month sabotage campaign at 1:1 (8h courier cadence)");
  benchutil::Report report;
  report.printf("%-7s %-9s %-9s %-14s %-8s\n", "month", "infected", "strikes",
                "destroyed", "safety");
  const auto campaign = natanz_run(sim::hours(8), 9, &report);
  report.dump();
  std::printf("\nfull plant: %zu cascade PLCs injected, %zu/%zu centrifuges "
              "destroyed, safety %s\n",
              campaign.cascades_injected, campaign.destroyed, campaign.total,
              campaign.safety_tripped ? "TRIPPED" : "never tripped");
  if (campaign.total != 9'020) {
    fatal("expected the full 9,020-centrifuge Natanz hall, built %zu",
          campaign.total);
  }
  if (!campaign.gap_crossed || campaign.destroyed == 0) {
    fatal("the 1:1 campaign failed to cross the gap and destroy centrifuges");
  }
  std::printf("\nexpected shape: crossing is a courier-cadence race (trend-e "
              "at 1:30), and the paper's\nthree-level operation now runs "
              "against the real cascade-hall size.\n");
}

// ---------------------------------------------------------------------------
// Memory pass: per-host heap, image-backed vs fully materialized.

struct CowMemory {
  double image_once = 0.0;      // one-time template cost (bytes)
  double cow_per_host = 0.0;    // marginal image-backed host (bytes)
  double mat_per_host = 0.0;    // same content, materialized (bytes)
  double ratio() const {
    return cow_per_host > 0.0 ? mat_per_host / cow_per_host : 0.0;
  }
};

CowMemory measure_cow_memory(std::size_t cow_hosts, std::size_t mat_hosts) {
  CowMemory m;
  {
    core::World world(0x3e3);
    const std::uint64_t before_image = g_heap_bytes.load();
    world.archetype_image(winsys::HostArchetype::kOfficePc);
    m.image_once = static_cast<double>(g_heap_bytes.load() - before_image);
    const std::uint64_t before = g_heap_bytes.load();
    world.add_fleet(winsys::HostArchetype::kOfficePc, cow_hosts, "cow-site");
    m.cow_per_host = static_cast<double>(g_heap_bytes.load() - before) /
                     static_cast<double>(cow_hosts);
  }
  {
    // The pre-refactor substrate: every host owns the full archetype tree
    // and a deep copy of the Microsoft certificate landscape.
    core::World world(0x3e4);
    const std::uint64_t before = g_heap_bytes.load();
    for (std::size_t i = 0; i < mat_hosts; ++i) {
      char name[24];
      std::snprintf(name, sizeof(name), "mat-pc%05zu", i);
      auto& host = world.add_host(
          name, winsys::default_os(winsys::HostArchetype::kOfficePc),
          "mat-lan" + std::to_string(i / 256));
      winsys::populate_archetype(winsys::HostArchetype::kOfficePc, host.fs(),
                                 host.registry());
      world.microsoft().install_into(host.cert_store());
      world.microsoft().anchor_root(host.trust_store());
    }
    m.mat_per_host = static_cast<double>(g_heap_bytes.load() - before) /
                     static_cast<double>(mat_hosts);
  }
  return m;
}

const CowMemory& cow_memory() {
  static const CowMemory m = measure_cow_memory(4096, 256);
  return m;
}

void reproduce_memory() {
  benchutil::section("per-host heap: image + COW delta vs materialized");
  const auto& m = cow_memory();
  std::printf("%-44s %14.0f bytes\n",
              "office-pc template image (one-time, shared)", m.image_once);
  std::printf("%-44s %14.0f bytes\n",
              "image-backed host, marginal (4,096-host fleet)",
              m.cow_per_host);
  std::printf("%-44s %14.0f bytes\n",
              "materialized host (same content, pre-refactor)",
              m.mat_per_host);
  std::printf("%-44s %14.1fx\n", "cow_ratio (gated >= 10x, fatal)",
              m.ratio());
  if (m.ratio() < 10.0) {
    fatal("per-host memory ratio %fx is below the 10x gate", m.ratio());
  }

  benchutil::section("archetype image inventory");
  std::printf("%-24s %-18s %s\n", "archetype", "os", "image files");
  core::World world(0x1a6e);
  for (int a = 0; a < winsys::kHostArchetypeCount; ++a) {
    const auto archetype = static_cast<winsys::HostArchetype>(a);
    const auto& image = world.archetype_image(archetype);
    world.add_fleet(archetype, 64, "inventory");
    std::printf("%-24s %-18s %zu\n", winsys::to_string(archetype),
                winsys::to_string(image->os()), image->file_count());
  }
  const std::size_t rss = proc_status_kb("VmRSS");
  const std::size_t hwm = proc_status_kb("VmHWM");
  if (rss > 0) {
    std::printf("\nprocess VmRSS %zu kB, VmHWM %zu kB (whole bench, "
                "reporting only — the gate above\nis the deterministic "
                "allocator count)\n",
                rss, hwm);
  }
}

void reproduce_mega() {
  benchutil::section("mega world: 1,250 sites x 800 = 1,000,000 hosts");
  EpiConfig cfg;
  cfg.sites = 1250;
  cfg.targeted = true;  // bounded infection count; the point here is size
  cfg.weeks = 4;
  const auto outcome = epidemic_run(cfg);
  std::printf("built %zu image-backed hosts in %.0f ms; 4-week targeted "
              "campaign ran in %.0f ms\nvictims %zu (target org only), "
              "VmRSS %zu kB\n",
              outcome.hosts, outcome.build_ms, outcome.run_ms,
              outcome.victims, proc_status_kb("VmRSS"));
}

// ---------------------------------------------------------------------------
// google-benchmark cases (BENCH_epidemic_scaling.json baseline). CI gates
// hosts_per_sec with --floor, heap_per_host with --ceiling and cow_ratio
// with --floor via tools/bench_diff.

void BM_AddFleet10k(benchmark::State& state) {
  for (auto _ : state) {
    core::World world(0xf1ee7);
    const auto fleet =
        world.add_fleet(winsys::HostArchetype::kOfficePc, 10'000, "site");
    benchmark::DoNotOptimize(fleet.count);
  }
  state.counters["hosts_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 10'000.0,
      benchmark::Counter::kIsRate);
  state.counters["heap_per_host"] = cow_memory().cow_per_host;
  state.counters["cow_ratio"] = cow_memory().ratio();
}
BENCHMARK(BM_AddFleet10k)->Unit(benchmark::kMillisecond);

void BM_EpidemicQuarter2k(benchmark::State& state) {
  EpiConfig cfg;
  cfg.sites = 8;
  cfg.hosts_per_site = 256;
  cfg.escalation_threshold = 1'500;
  for (auto _ : state) {
    auto outcome = epidemic_run(cfg);
    benchmark::DoNotOptimize(outcome.victims);
  }
}
BENCHMARK(BM_EpidemicQuarter2k)->Unit(benchmark::kMillisecond);

void BM_SiteRouting512(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simulation;
    net::Network network(simulation);
    std::vector<std::string> names(512);
    for (std::size_t s = 0; s < names.size(); ++s) {
      names[s] = "s" + std::to_string(s);
      network.add_site(names[s]);
    }
    for (std::size_t s = 8; s < names.size(); ++s) {
      network.link_sites(names[s], names[s % 8], sim::hours(6));
    }
    for (std::size_t a = 0; a < 8; ++a) {
      for (std::size_t b = a + 1; b < 8; ++b) {
        network.link_sites(names[a], names[b], sim::hours(12));
      }
    }
    sim::Duration total = 0;
    for (std::size_t t = 0; t < names.size(); ++t) {
      total += network.route_between(names[0], names[t]).latency;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SiteRouting512)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchutil::header(
      "EPIDEMIC-SCALING: template images + COW deltas at campaign scale",
      "§II / §V-B / §V-E at 1:1 — ~100k infections, the 9,020-centrifuge "
      "Natanz hall");
  const std::string exe(argv[0]);
  const auto slash = exe.rfind('/');
  const std::string exe_dir =
      slash == std::string::npos ? std::string(".") : exe.substr(0, slash);
  if (benchutil::has_flag(argc, argv, "--print-checksums")) {
    reproduce_identity(exe_dir, /*print_checksums=*/true);
    return 0;
  }
  if (!benchutil::has_flag(argc, argv, "--no-repro")) {
    reproduce_identity(exe_dir, /*print_checksums=*/false);
    reproduce_trend_b_at_scale();
    reproduce_trend_e_at_scale();
    reproduce_memory();
    if (benchutil::has_flag(argc, argv, "--mega")) reproduce_mega();
  }
  return benchutil::run_benchmarks(argc, argv);
}
