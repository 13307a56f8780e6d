#pragma once
// Shared helpers for the reproduction benches.
//
// Every bench binary follows the same shape: print the reproduced
// table/series for its figure or trend (deterministic, seed-fixed), then
// hand over to google-benchmark for the performance measurements. Keeping
// the reproduction in plain stdout keeps `for b in build/bench/*; do $b;
// done` self-contained.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "core/world.hpp"
#include "pki/signing.hpp"
#include "sim/sharded_scheduler.hpp"

namespace cyd::benchutil {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& name) {
  std::printf("\n-- %s --\n", name.c_str());
}

/// Wall-clock milliseconds one call of `fn` takes.
template <class Fn>
double time_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Prints "FATAL: <message>" and exits nonzero: how every bench fails a
/// correctness gate, so no later table or counter is reported.
[[noreturn, gnu::format(printf, 1, 2)]] inline void fatal(const char* fmt,
                                                         ...) {
  std::printf("\nFATAL: ");
  std::va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::exit(1);
}

/// Fatal unless `actual` equals its golden `pinned` value, printing both.
/// Pins are deterministic checksums recorded at a commit where the result
/// was checked (most of them where a seed implementation still ran beside
/// the current path and agreed), so a divergence is a behaviour change, not
/// noise.
inline void check_pin(const char* what, std::uint64_t actual,
                      std::uint64_t pinned) {
  if (actual == pinned) return;
  fatal("%s diverged from its pin (%016llx, pinned %016llx)", what,
        static_cast<unsigned long long>(actual),
        static_cast<unsigned long long>(pinned));
}

/// printf-compatible sink that buffers instead of writing to stdout. The
/// figure benches run their scenario grids through sim::Sweep::map_items;
/// each run renders its part of the report into a Report and the caller
/// dumps them in item order, so the parallel fan-out stays byte-identical
/// to the serial loop it replaced.
class Report {
 public:
  [[gnu::format(printf, 2, 3)]] void printf(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::va_list measure;
    va_copy(measure, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, measure);
    va_end(measure);
    if (n > 0) {
      const std::size_t old = text_.size();
      text_.resize(old + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(text_.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                     args);
      text_.resize(old + static_cast<std::size_t>(n));  // drop the NUL
    }
    va_end(args);
  }

  void section(const std::string& name) { printf("\n-- %s --\n", name.c_str()); }

  const std::string& text() const { return text_; }
  bool empty() const { return text_.empty(); }

  /// Writes the buffered report to stdout.
  void dump() const { std::fwrite(text_.data(), 1, text_.size(), stdout); }

 private:
  std::string text_;
};

/// True when `flag` appears verbatim in argv. The benches use `--no-repro`
/// to skip the deterministic reproduction pass (the bench_smoke target only
/// wants the timed cases); google-benchmark leaves argv entries it does not
/// recognize alone, so the extra flag is safe to pass through.
inline bool has_flag(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

/// A commercial code-signing ecosystem: one trusted root plus a leaf issued
/// to `subject`. Installs the root into the given host-independent stores.
struct SigningIdentity {
  pki::CertificateAuthority ca;
  pki::KeyPair key;
  pki::Certificate cert;

  static SigningIdentity make(const std::string& subject,
                              std::uint64_t seed) {
    auto ca = pki::CertificateAuthority::create_root(
        "Commercial Root CA", pki::HashAlgorithm::kStrong64, 0,
        sim::days(20000), seed);
    auto key = pki::KeyPair::generate(seed ^ 0x99);
    auto cert = ca.issue(subject, pki::kUsageCodeSigning,
                         pki::HashAlgorithm::kStrong64, 0, sim::days(20000),
                         key);
    return SigningIdentity{std::move(ca), key, std::move(cert)};
  }

  void trust_on(winsys::Host& host) const {
    host.cert_store().add(ca.certificate());
    host.trust_store().trust_root(ca.certificate().serial);
  }
};

/// The trend-b world shape shared by the scaling benches (and the first
/// concrete step toward the ROADMAP scenario compiler): `sites` office
/// fleets named org0000, org0001, … — zero-padded so site-name order (the
/// shard order World::shard_plan derives) equals build order — with the
/// first min(8, sites) sites doubling as fully-meshed regional WAN hubs at
/// hours(12) and every other site hanging off its region at hours(6).
struct HubSpokeFleet {
  std::vector<std::string> site_names;
  std::vector<core::FleetHandle> fleets;
};

inline HubSpokeFleet build_hub_spoke_fleet(
    core::World& world, std::size_t sites, std::size_t hosts_per_site,
    winsys::HostArchetype archetype = winsys::HostArchetype::kOfficePc) {
  if (sites > 9999) {
    // "org%04zu" zero-padding is what makes site-name order equal build
    // order (the shard_plan invariant); "org10000" would sort before
    // "org2000" and silently desynchronize shard order from fleet index.
    throw std::invalid_argument(
        "build_hub_spoke_fleet: sites > 9999 breaks the zero-padded "
        "name-order == build-order invariant; widen the padding first");
  }
  HubSpokeFleet out;
  out.site_names.resize(sites);
  out.fleets.resize(sites);
  for (std::size_t s = 0; s < sites; ++s) {
    char name[24];  // org + zero-padded index, sized for %04zu's worst case
    std::snprintf(name, sizeof(name), "org%04zu", s);
    out.site_names[s] = name;
    out.fleets[s] =
        world.add_fleet(archetype, hosts_per_site, out.site_names[s]);
  }
  const std::size_t hubs = std::min<std::size_t>(8, sites);
  for (std::size_t s = hubs; s < sites; ++s) {
    world.network().link_sites(out.site_names[s], out.site_names[s % hubs],
                               sim::hours(6));
  }
  for (std::size_t a = 0; a < hubs; ++a) {
    for (std::size_t b = a + 1; b < hubs; ++b) {
      world.network().link_sites(out.site_names[a], out.site_names[b],
                                 sim::hours(12));
    }
  }
  return out;
}

/// A hand-built ring shard plan ("site-0" … "site-N-1", bidirectional links)
/// for storms whose shards never actually talk: the channels exist to give
/// the conservative windows a realistic lookahead instead of the unbounded
/// isolated-shard fast path.
inline sim::ShardPlan ring_plan(std::size_t shards,
                                sim::Duration latency = 6 * sim::kHour) {
  sim::ShardPlan plan;
  for (std::size_t k = 0; k < shards; ++k) {
    plan.labels.push_back("site-" + std::to_string(k));
  }
  for (std::size_t k = 0; k < shards; ++k) {
    const auto a = static_cast<std::uint32_t>(k);
    const auto b = static_cast<std::uint32_t>((k + 1) % shards);
    plan.channels.push_back({a, b, latency});
    plan.channels.push_back({b, a, latency});
  }
  return plan;
}

/// Runs the registered google-benchmark cases with default settings.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace cyd::benchutil
