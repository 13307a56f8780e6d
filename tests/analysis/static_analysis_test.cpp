#include "analysis/static_analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "malware/shamoon/shamoon.hpp"
#include "malware/tracker.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace cyd::analysis {
namespace {

struct AnalystBench {
  pki::CertStore store;
  pki::TrustStore trust;
  sim::TimePoint now = sim::make_date(2012, 9, 1);
};

TEST(StaticAnalysisTest, ExtractStringsFindsPrintableRuns) {
  const std::string data =
      std::string("\x01\x02", 2) + "mssecmgr.ocx" + std::string("\x00", 1) +
      "short" + std::string("\xff", 1) + "GET_NEWS command";
  std::vector<std::string> strings;
  for_each_string(data, 6,
                  [&](std::string_view s) { strings.emplace_back(s); });
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "mssecmgr.ocx");
  EXPECT_EQ(strings[1], "GET_NEWS command");
}

TEST(StaticAnalysisTest, ForEachStringVisitsRunsInPlace) {
  const std::string data =
      std::string("\x01\x02", 2) + "mssecmgr.ocx" + std::string("\x00", 1) +
      "short" + std::string("\xff", 1) + "GET_NEWS command";
  std::vector<std::string_view> seen;
  for_each_string(data, 6, [&](std::string_view s) { seen.push_back(s); });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "mssecmgr.ocx");
  EXPECT_EQ(seen[1], "GET_NEWS command");
  // The views alias the scanned buffer — no copies were made.
  for (const auto& s : seen) {
    EXPECT_GE(s.data(), data.data());
    EXPECT_LE(s.data() + s.size(), data.data() + data.size());
  }
  // A run terminated only by end-of-data still flushes.
  std::vector<std::string_view> tail;
  for_each_string("trailing-run", 6, [&](std::string_view s) {
    tail.push_back(s);
  });
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], "trailing-run");
  // Copied out, the views are exactly the printable runs.
  EXPECT_EQ(std::vector<std::string>(seen.begin(), seen.end()),
            (std::vector<std::string>{"mssecmgr.ocx", "GET_NEWS command"}));
}

TEST(StaticAnalysisTest, BruteXorRecoversKey) {
  const common::Bytes plain = "SPE1 some executable payload";
  for (std::uint8_t key : {0x01, 0x5A, 0xAB, 0xFF}) {
    const auto cipher = common::xor_cipher(plain, key);
    EXPECT_EQ(brute_xor_key(cipher), key);
  }
  // Unencrypted data reports key 0 (identity).
  EXPECT_EQ(brute_xor_key(plain), 0);
  // Garbage without the marker fails.
  EXPECT_FALSE(brute_xor_key("no marker here at all").has_value());
}

/// The decrypt-and-search key recovery brute_xor_key replaced, kept as its
/// oracle: decrypt the probe window under each of the 256 keys in turn and
/// return the first key whose plaintext contains the marker.
std::optional<std::uint8_t> brute_xor_key_by_decryption(
    std::string_view data, std::string_view marker) {
  if (data.size() < marker.size() || marker.empty()) return std::nullopt;
  for (int key = 0; key < 256; ++key) {
    const std::size_t probe_len = std::min(data.size(), marker.size() + 64);
    const auto probe = common::xor_cipher(data.substr(0, probe_len),
                                          static_cast<std::uint8_t>(key));
    if (probe.find(marker) != std::string::npos) {
      return static_cast<std::uint8_t>(key);
    }
  }
  return std::nullopt;
}

TEST(StaticAnalysisTest, BruteXorKeyMatchesDecryptionOracle) {
  sim::Rng rng(0xb7e1);
  const std::string markers[] = {"SPE1", "M", "ZZ", std::string("\0\0", 2),
                                 "payload-marker"};
  std::size_t checked = 0;
  for (const auto& marker : markers) {
    // The marker planted under a random key at every offset 0..70, which
    // crosses the edge of the marker.size() + 64 probe window.
    for (std::size_t offset = 0; offset <= 70; ++offset) {
      for (int round = 0; round < 4; ++round) {
        const auto tail = static_cast<std::size_t>(rng.uniform_int(0, 40));
        auto data = common::random_bytes(rng, offset + marker.size() + tail);
        const auto key = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        data.replace(offset, marker.size(), common::xor_cipher(marker, key));
        EXPECT_EQ(brute_xor_key(data, marker),
                  brute_xor_key_by_decryption(data, marker))
            << "marker " << marker.size() << " bytes at offset " << offset;
        ++checked;
      }
    }
    // Unplanted buffers over a small alphabet: short markers match by
    // accident under many keys at once.
    for (int round = 0; round < 200; ++round) {
      std::string data(static_cast<std::size_t>(rng.uniform_int(0, 120)), 0);
      for (auto& c : data) c = static_cast<char>(rng.uniform_int(0, 3) * 77);
      EXPECT_EQ(brute_xor_key(data, marker),
                brute_xor_key_by_decryption(data, marker));
      ++checked;
    }
  }
  EXPECT_EQ(checked, 5u * (71 * 4 + 200));
}

TEST(StaticAnalysisTest, BruteXorKeyPicksTheSmallestMatchingKey) {
  const std::string marker = "SPE1";
  // The marker under key 0x90 first, then under key 0x11 further in:
  // the smaller key wins wherever it sits in the window.
  std::string data(48, '\x01');
  data.replace(2, 4, common::xor_cipher(marker, 0x90));
  data.replace(30, 4, common::xor_cipher(marker, 0x11));
  EXPECT_EQ(brute_xor_key(data, marker), 0x11);
  EXPECT_EQ(brute_xor_key_by_decryption(data, marker), 0x11);
  // Past the probe window the smaller key is never seen.
  std::string far(100, '\x01');
  far.replace(0, 4, common::xor_cipher(marker, 0x90));
  far.replace(65, 4, common::xor_cipher(marker, 0x11));
  EXPECT_EQ(brute_xor_key(far, marker), 0x90);
  EXPECT_EQ(brute_xor_key_by_decryption(far, marker), 0x90);
  // A two-byte marker with equal bytes: every adjacent equal pair of
  // bytes is a match, so the smallest such byte value wins.
  const std::string pairs("\x07\x07\x03\x03\x09\x09", 6);
  EXPECT_EQ(brute_xor_key(pairs, std::string_view("\0\0", 2)), 0x03);
}

TEST(StaticAnalysisTest, BruteXorKeyEdgeSizes) {
  const std::string marker = "SPE1";
  // Shorter than the marker: no key.
  EXPECT_FALSE(brute_xor_key("SPE", marker).has_value());
  EXPECT_FALSE(brute_xor_key("", marker).has_value());
  // Exactly marker-sized: one offset, one candidate key.
  EXPECT_EQ(brute_xor_key(common::xor_cipher(marker, 0x42), marker), 0x42);
  EXPECT_EQ(brute_xor_key(marker, marker), 0x00);
  EXPECT_FALSE(brute_xor_key("SPE2", marker).has_value());
  // An empty marker recovers nothing.
  EXPECT_FALSE(brute_xor_key("anything", "").has_value());
  EXPECT_FALSE(brute_xor_key("", "").has_value());
  for (const std::string_view data : {"SPE", "SPE1", "SPE2", "", "anything"}) {
    EXPECT_EQ(brute_xor_key(data, marker),
              brute_xor_key_by_decryption(data, marker));
    EXPECT_EQ(brute_xor_key(data, ""), brute_xor_key_by_decryption(data, ""));
  }
}

TEST(StaticAnalysisTest, GarbageIsUnparseable) {
  AnalystBench bench;
  const auto report = dissect("MZ not an spe", bench.store, bench.trust,
                              bench.now);
  EXPECT_FALSE(report.parse_ok);
  EXPECT_FALSE(report.parse_error.empty());
  EXPECT_NE(report.summary().find("unparseable"), std::string::npos);
}

TEST(StaticAnalysisTest, DissectsShamoonTrkSvrFully) {
  // The Fig. 6 workflow: one pass over TrkSvr.exe should surface the whole
  // component tree — dropper, encrypted wiper + reporter, nested driver,
  // and the x64 variant.
  sim::Simulation simulation;
  net::Network network(simulation);
  winsys::ProgramRegistry programs;
  malware::InfectionTracker tracker;
  malware::shamoon::Shamoon shamoon(simulation, network, programs, tracker);
  // Give the wiper its signed driver so the nested chain is 3 deep.
  auto ca = pki::CertificateAuthority::create_root(
      "Root", pki::HashAlgorithm::kStrong64, 0, sim::days(9999), 1);
  auto key = pki::KeyPair::generate(2);
  auto cert = ca.issue("EldoS Corporation", pki::kUsageCodeSigning,
                       pki::HashAlgorithm::kStrong64, 0, sim::days(9999), key);
  auto driver = pe::Builder{}
                    .program(malware::shamoon::Shamoon::kDriverProgram)
                    .filename("drdisk.sys")
                    .build();
  pki::sign_image(driver, cert, key);
  shamoon.set_disk_driver(driver);

  AnalystBench bench;
  bench.store.add(ca.certificate());
  bench.trust.trust_root(ca.certificate().serial);

  const auto specimen = shamoon.build_trksvr().serialize();
  const auto report =
      dissect(specimen, bench.store, bench.trust, bench.now);

  ASSERT_TRUE(report.parse_ok);
  EXPECT_EQ(report.original_filename, "TrkSvr.exe");
  EXPECT_EQ(report.signature.status, pki::SignatureStatus::kUnsigned);
  ASSERT_EQ(report.resources.size(), 3u);  // PKCS7, PKCS12, X509

  // Every resource is XOR-encrypted and the key is recoverable.
  for (const auto& res : report.resources) {
    EXPECT_TRUE(res.xor_encrypted);
    ASSERT_TRUE(res.recovered_xor_key.has_value());
    EXPECT_EQ(*res.recovered_xor_key, 0xAB);
    ASSERT_NE(res.embedded, nullptr);
    EXPECT_TRUE(res.embedded->parse_ok);
  }
  // dropper -> {reporter, wiper(-> driver), x64(-> reporter, wiper(->driver))}
  EXPECT_EQ(report.embedded_pe_count(), 7u);

  // The nested Eldos driver is found and its signature validates.
  const StaticReport* wiper = nullptr;
  for (const auto& res : report.resources) {
    if (res.id == malware::shamoon::Shamoon::kResWiper) {
      wiper = res.embedded.get();
    }
  }
  ASSERT_NE(wiper, nullptr);
  ASSERT_EQ(wiper->resources.size(), 2u);  // JPEG + driver
  const StaticReport* nested_driver = nullptr;
  for (const auto& res : wiper->resources) {
    if (res.embedded) nested_driver = res.embedded.get();
  }
  ASSERT_NE(nested_driver, nullptr);
  EXPECT_TRUE(nested_driver->signature.valid());
  EXPECT_EQ(nested_driver->signature.signer_subject, "EldoS Corporation");
}

TEST(StaticAnalysisTest, DepthLimitStopsRecursion) {
  sim::Simulation simulation;
  net::Network network(simulation);
  winsys::ProgramRegistry programs;
  malware::InfectionTracker tracker;
  malware::shamoon::Shamoon shamoon(simulation, network, programs, tracker);
  AnalystBench bench;
  const auto report = dissect(shamoon.build_trksvr().serialize(), bench.store,
                              bench.trust, bench.now, /*max_depth=*/1);
  // Depth 1: resources dissected but their own resources are not.
  EXPECT_GT(report.embedded_pe_count(), 0u);
  for (const auto& res : report.resources) {
    if (res.embedded) {
      EXPECT_EQ(res.embedded->embedded_pe_count(), 0u);
    }
  }
}

TEST(StaticAnalysisTest, PackedHeuristicFlagsHighEntropySections) {
  sim::Rng rng(1);
  auto packed = pe::Builder{}
                    .program("p")
                    .section(".packed", common::random_bytes(rng, 4096), true)
                    .build();
  AnalystBench bench;
  EXPECT_TRUE(
      dissect(packed.serialize(), bench.store, bench.trust, bench.now)
          .looks_packed);
  auto plain = pe::Builder{}
                   .program("p")
                   .section(".text", std::string(4096, 'A'), true)
                   .build();
  EXPECT_FALSE(
      dissect(plain.serialize(), bench.store, bench.trust, bench.now)
          .looks_packed);
}

TEST(StaticAnalysisTest, ImportsAreFlattened) {
  auto image = pe::Builder{}
                   .program("p")
                   .import("kernel32.dll", {"CreateFileW", "WriteFile"})
                   .section(".text", "x", true)
                   .build();
  AnalystBench bench;
  const auto report =
      dissect(image.serialize(), bench.store, bench.trust, bench.now);
  ASSERT_EQ(report.imports.size(), 2u);
  EXPECT_EQ(report.imports[0], "kernel32.dll!CreateFileW");
}

}  // namespace
}  // namespace cyd::analysis
