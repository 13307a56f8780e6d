// The analysis fan-outs on the sweep pool must give exactly what their
// serial references give: the printable-byte table, extract_pile's
// parallel carve with in-order interning, and the band lists merged by
// lsh_candidate_pairs. These live in sweep_tests so the ThreadSanitizer
// job runs the parallel carve, the intern hand-off and the merge tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "analysis/minhash.hpp"
#include "analysis/similarity.hpp"
#include "analysis/static_analysis.hpp"
#include "pe/image.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

/// for_each_string as it was written against libc: std::isprint per byte.
std::vector<std::string> strings_by_isprint(std::string_view data,
                                            std::size_t min_length) {
  std::vector<std::string> out;
  std::string run;
  for (const char ch : data) {
    const auto c = static_cast<unsigned char>(ch);
    if (std::isprint(c) && c != '\t') {
      run.push_back(ch);
      continue;
    }
    if (run.size() >= min_length) out.push_back(run);
    run.clear();
  }
  if (run.size() >= min_length) out.push_back(run);
  return out;
}

std::vector<std::string> strings_by_table(std::string_view data,
                                          std::size_t min_length) {
  std::vector<std::string> out;
  for_each_string(data, min_length,
                  [&](std::string_view s) { out.emplace_back(s); });
  return out;
}

TEST(AnalysisPoolTest, ForEachStringMatchesIsprintOnEveryByte) {
  for (int c = 0; c < 256; ++c) {
    const std::string lone(1, static_cast<char>(c));
    EXPECT_EQ(printable_table()[static_cast<std::size_t>(c)],
              std::isprint(c) && c != '\t')
        << "byte " << c;
    EXPECT_EQ(strings_by_table(lone, 1), strings_by_isprint(lone, 1))
        << "byte " << c;
    // The byte inside a run of letters either extends it or splits it.
    const std::string framed = "abc" + lone + "def";
    EXPECT_EQ(strings_by_table(framed, 3), strings_by_isprint(framed, 3))
        << "byte " << c;
  }
  sim::Rng rng(0x15);
  for (int round = 0; round < 50; ++round) {
    std::string data(static_cast<std::size_t>(rng.uniform_int(0, 600)), 0);
    // Mostly printable, so runs of every length occur.
    for (auto& ch : data) {
      ch = static_cast<char>(rng.bernoulli(0.85) ? rng.uniform_int(32, 126)
                                                 : rng.uniform_int(0, 255));
    }
    for (const std::size_t min_length : {1u, 6u}) {
      EXPECT_EQ(strings_by_table(data, min_length),
                strings_by_isprint(data, min_length));
    }
  }
}

std::string token(sim::Rng& rng, std::size_t length) {
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
  }
  return out;
}

/// A kit-built specimen: kit strings (some dropped), victim strings, kit
/// imports and section name, a nested module in an XOR-encrypted resource
/// and a plain resource of strings.
common::Bytes kit_specimen(std::size_t kit, sim::Rng& rng) {
  sim::Rng kit_rng(sim::derive_seed(0xc0de, kit));
  std::string text;
  for (int i = 0; i < 12; ++i) {
    const auto s = "k" + std::to_string(kit) + "_" + token(kit_rng, 8);
    if (rng.bernoulli(0.8)) text += s + '\0';
  }
  text += "victim_" + token(rng, 6) + '\0';
  const auto module = pe::Builder{}
                          .program("kit.module")
                          .section(".text", "module_of_kit_" +
                                                std::to_string(kit % 7),
                                   true)
                          .import("ntdll.dll", {"NtOpenKey"})
                          .build()
                          .serialize();
  pe::Builder builder;
  builder.program("kit.main")
      .version("Vendor/" + token(kit_rng, 5))
      .section(".text", text, true)
      .section(".k" + token(kit_rng, 3), token(rng, 10), false)
      .import("kernel32.dll", {"Fn" + token(kit_rng, 4), "LoadLibraryA"})
      .encrypted_resource(101, "MODULE", module,
                          static_cast<std::uint8_t>(rng.uniform_int(0, 255)))
      .resource(102, "CFG", "config_" + token(rng, 7));
  return builder.build().serialize();
}

/// More specimens than one carve block, with truncated, bit-flipped,
/// random and empty ones mixed in among the well-formed.
std::vector<LabelledSpecimen> hostile_pile(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<LabelledSpecimen> pile;
  for (std::size_t i = 0; i < n; ++i) {
    auto bytes = kit_specimen(i % 23, rng);
    switch (i % 6) {
      case 3:
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()))));
        break;
      case 4:
        for (int f = 0; f < 3; ++f) {
          const auto pos = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(bytes.size()) - 1));
          bytes[pos] = static_cast<char>(
              bytes[pos] ^ static_cast<char>(rng.uniform_int(1, 255)));
        }
        break;
      case 5:
        bytes = i % 12 == 5 ? common::Bytes{}
                            : common::random_bytes(
                                  rng, static_cast<std::size_t>(
                                           rng.uniform_int(0, 400)));
        break;
      default:
        break;
    }
    pile.push_back({"s" + std::to_string(i), std::move(bytes)});
  }
  return pile;
}

TEST(AnalysisPoolTest, ExtractPileEqualsSerialExtraction) {
  for (const std::size_t n : {0u, 1u, 255u, 256u, 257u, 700u}) {
    const auto pile = hostile_pile(n, 0x9117 + n);
    FeatureDict serial_dict;
    std::vector<SpecimenFeatures> serial;
    for (const auto& s : pile) {
      serial.push_back(extract_features(s.bytes, serial_dict));
    }
    FeatureDict pooled_dict;
    const auto pooled = extract_pile(pile, pooled_dict);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pooled[i].strings, serial[i].strings) << "specimen " << i;
      EXPECT_EQ(pooled[i].imports, serial[i].imports) << "specimen " << i;
      EXPECT_EQ(pooled[i].section_names, serial[i].section_names)
          << "specimen " << i;
    }
    ASSERT_EQ(pooled_dict.size(), serial_dict.size()) << "pile of " << n;
    for (FeatureId id = 0; id < serial_dict.size(); ++id) {
      EXPECT_EQ(pooled_dict.view(id), serial_dict.view(id));
    }
    if (n == 700) {
      EXPECT_GT(serial_dict.size(), 1000u);
    }
  }
}

TEST(AnalysisPoolTest, PileAnalysisRunsInsideASweepTask) {
  // similarity_matrix and cluster_specimens sweep on the default runner
  // themselves; called from one of its tasks they must run inline and
  // give the same answer as from outside.
  const auto pile = hostile_pile(40, 0x4e57);
  const auto matrix = similarity_matrix(pile);
  const auto clusters = cluster_specimens(pile, 0.5);
  const auto matrices = sim::Sweep::map(
      4, 0, [&](const sim::SweepRun&) { return similarity_matrix(pile); });
  const auto clusterings = sim::Sweep::map(
      3, 0, [&](const sim::SweepRun&) { return cluster_specimens(pile, 0.5); });
  for (const auto& m : matrices) EXPECT_EQ(m, matrix);
  for (const auto& c : clusterings) EXPECT_EQ(c, clusters);
}

/// Candidate pairs by definition: every pair of specimens whose rows are
/// equal across some whole band, sorted and deduplicated at the end.
std::vector<CandidatePair> pairs_by_definition(
    const std::vector<MinHashSketch>& sketches, const MinHashParams& params) {
  std::vector<CandidatePair> out;
  for (std::size_t band = 0; band < params.bands; ++band) {
    const std::size_t lo = band * params.rows;
    for (std::size_t i = 0; i < sketches.size(); ++i) {
      for (std::size_t j = i + 1; j < sketches.size(); ++j) {
        if (std::equal(sketches[i].sig.begin() + lo,
                       sketches[i].sig.begin() + lo + params.rows,
                       sketches[j].sig.begin() + lo)) {
          out.push_back({static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j)});
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(AnalysisPoolTest, LshMergeEqualsSortUniqueUnderHeavyCollisions) {
  sim::Rng rng(0x1511);
  struct Shape {
    std::size_t bands;
    std::size_t rows;
    std::size_t n;
    std::int64_t alphabet;  // signature slots drawn from [0, alphabet)
  };
  const Shape shapes[] = {{32, 4, 300, 2}, {5, 2, 257, 3}, {1, 3, 64, 2},
                          {3, 1, 2, 2},    {7, 2, 3, 1},   {16, 2, 200, 40}};
  for (const auto& shape : shapes) {
    MinHashParams params;
    params.bands = shape.bands;
    params.rows = shape.rows;
    std::vector<MinHashSketch> sketches(shape.n);
    for (auto& sketch : sketches) {
      sketch.sig.resize(params.hashes());
      for (auto& slot : sketch.sig) {
        slot = static_cast<std::uint64_t>(
            rng.uniform_int(0, shape.alphabet - 1));
      }
    }
    const auto pairs = lsh_candidate_pairs(sketches, params);
    EXPECT_EQ(pairs, pairs_by_definition(sketches, params))
        << shape.bands << "x" << shape.rows << " over " << shape.n;
  }
}

}  // namespace
}  // namespace cyd::analysis
