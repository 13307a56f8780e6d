#pragma once
// Golden checksums of every fig/trend/ablation/attribution repro output.
//
// Each value is FNV-1a 64 over a bench binary's full repro output
// (stdout+stderr of `<bench> --benchmark_filter=NONEXISTENT`, with the sweep
// harness's wall-clock lines dropped). The `ReproIdentity/*` ctest cases
// (tests/repro/repro_identity_test.cpp, one case per binary) check every
// entry; a failing case prints the measured hex, which is the new value to
// commit after an *intentional* output change.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace cyd::repro {

struct ReproChecksum {
  const char* bench;
  std::uint64_t fnv64;
};

inline constexpr ReproChecksum kSeedChecksums[] = {
    {"fig1_stuxnet_operation", 0xd5acfef738e5a261ULL},
    {"fig2_flame_mitm", 0x65cbd3d4e33bd97fULL},
    {"fig3_cert_forgery", 0x6f3e9a206cba6c24ULL},
    {"fig4_cnc_platform", 0x5216840b643e4f7aULL},
    {"fig5_cnc_server", 0x8516b7a40fec622eULL},
    {"fig6_shamoon", 0x2226a376acbbeee6ULL},
    {"trend_a_sophistication", 0x2ae408eb66995428ULL},
    {"trend_b_targeting", 0xe7f4584a20da4c6aULL},
    {"trend_c_certified", 0x1c13fcff999f9dd3ULL},
    {"trend_d_modularity", 0x97ac8c97a76824a8ULL},
    {"trend_e_usb", 0x62dcf2f99b92efbcULL},
    {"trend_f_suicide", 0x013032616ff40b5cULL},
    {"ablation_stuxnet_design", 0xe9bd30510d012299ULL},
    {"ablation_patch_race", 0x8cf9114c73bcf8a8ULL},
    {"attribution_matrix", 0x65352f6485e090a6ULL},
};

inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Drops the sweep harness's wall-clock lines; everything else in a repro
/// report is deterministic for a fixed seed.
inline std::string strip_timing_lines(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string_view line(text.data() + pos, end - pos);
    if (line.find(" ms wall") == std::string_view::npos) out.append(line);
    pos = end;
  }
  return out;
}

/// Runs `dir/name`'s repro pass only (no timed cases) and returns its
/// combined stdout+stderr; empty when the binary could not be started.
inline std::string run_sibling(const std::string& dir, const char* name) {
  const std::string cmd =
      dir + "/" + name + " --benchmark_filter=NONEXISTENT 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  pclose(pipe);
  return out;
}

}  // namespace cyd::repro
