// Byte identity of the 15 retained repro outputs: one case per bench binary
// in repro_checksums.hpp, so a drifted figure fails on its own. Each case
// runs the sibling binary's repro pass (CYD_BENCH_DIR, set by CMake) and
// compares the checksum of its timing-stripped output with the golden value.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "repro_checksums.hpp"

namespace cyd::repro {
namespace {

class ReproIdentityTest : public ::testing::TestWithParam<ReproChecksum> {};

TEST_P(ReproIdentityTest, OutputMatchesGoldenChecksum) {
  const ReproChecksum& expected = GetParam();
  const std::string raw = run_sibling(CYD_BENCH_DIR, expected.bench);
  ASSERT_FALSE(raw.empty()) << "could not run " << CYD_BENCH_DIR << "/"
                            << expected.bench;
  const std::uint64_t got = fnv1a64(strip_timing_lines(raw));
  char hex[2][19];
  std::snprintf(hex[0], sizeof hex[0], "0x%016llx",
                static_cast<unsigned long long>(got));
  std::snprintf(hex[1], sizeof hex[1], "0x%016llx",
                static_cast<unsigned long long>(expected.fnv64));
  EXPECT_STREQ(hex[0], hex[1]) << expected.bench << " output diverged:\n"
                               << raw;
}

INSTANTIATE_TEST_SUITE_P(
    ReproIdentity, ReproIdentityTest, ::testing::ValuesIn(kSeedChecksums),
    [](const ::testing::TestParamInfo<ReproChecksum>& info) {
      return std::string(info.param.bench);
    });

}  // namespace
}  // namespace cyd::repro
