// attribution_pile: the blue-team pass over a pile of real specimens. Each
// family comes from a builder kit — shared code, imports and section
// layout — and every specimen is a per-victim variant: kit strings dropped
// or added, a victim config, and the kit's module nested as an
// XOR-encrypted PE resource; half the kits sign with a stolen certificate.
// The pass dissects every specimen (signature verdict, XOR key recovery,
// nested carving), extracts the pile's features and clusters them with
// MinHash/LSH. Only this workload loads pe and analysis; it uses no sim.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/minhash.hpp"
#include "analysis/similarity.hpp"
#include "analysis/static_analysis.hpp"
#include "analysis/union_find.hpp"
#include "cnc/pipeline.hpp"
#include "pe/image.hpp"
#include "pki/signing.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cyd;
using Clock = std::chrono::steady_clock;

constexpr double kThreshold = 0.5;
constexpr double kKeep = 0.9;  // a variant keeps each kit string
const sim::TimePoint kAnalysisTime = sim::make_date(2012, 9, 1);

const char* const kDlls[] = {"kernel32.dll", "advapi32.dll", "ws2_32.dll",
                             "wininet.dll",  "ntdll.dll",    "user32.dll",
                             "shell32.dll",  "crypt32.dll"};

struct Expected {
  std::uint32_t kit = 0;
  bool signed_image = false;
  std::uint8_t xor_key = 0;
};

struct Pile {
  std::vector<analysis::LabelledSpecimen> specimens;
  std::vector<Expected> expected;
};

std::string token(sim::Rng& rng, std::size_t length) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
  }
  return out;
}

Pile build_pile(std::uint64_t seed, const PileSize& size,
                const pki::Certificate& cert, const pki::KeyPair& key) {
  Pile pile;
  // Runtime strings every kit links in some of: the shared vocabulary that
  // makes unrelated families collide in LSH bands now and then.
  sim::Rng runtime_rng(sim::derive_seed(seed, 0x7c7));
  std::vector<std::string> runtime;
  for (int i = 0; i < 64; ++i) runtime.push_back("rt_" + token(runtime_rng, 9));
  for (std::size_t kit = 0; kit < size.kits; ++kit) {
    sim::Rng kit_rng(sim::derive_seed(seed, kit));
    std::vector<std::string> strings;
    const std::string prefix = "k" + std::to_string(kit);
    for (int i = 0; i < 48; ++i) {
      strings.push_back(prefix + "_" + token(kit_rng, 10));
    }
    for (int i = 0; i < 24; ++i) {
      strings.push_back(runtime[kit_rng.uniform_int(0, 63)]);
    }
    // Kit code: the same bytes in every variant, strings embedded in it.
    common::Bytes code;
    for (int i = 0; i < 2048; ++i) {
      code.push_back(static_cast<char>(kit_rng.uniform_int(0, 255)));
    }
    std::vector<std::pair<std::string, std::vector<std::string>>> imports = {
        {"kernel32.dll", {"GetProcAddress", "LoadLibraryA", "VirtualAlloc"}}};
    for (int d = 0; d < 3; ++d) {
      std::vector<std::string> fns;
      for (int f = 0; f < 5; ++f) fns.push_back("Fn" + token(kit_rng, 8));
      imports.emplace_back(kDlls[kit_rng.uniform_int(0, 7)], std::move(fns));
    }
    const std::string section = ".k" + token(kit_rng, 4);
    const bool signs = kit % 2 == 0;
    common::Bytes module_text = "module of kit " + std::to_string(kit);
    for (int i = 0; i < 8; ++i) module_text += '\0' + strings[i] + "_mod";

    for (std::size_t v = 0; v < size.variants_per_kit; ++v) {
      sim::Rng rng(sim::derive_seed(seed ^ 0x5eed, kit * 4096 + v));
      common::Bytes text = code;
      for (const auto& s : strings) {
        if (rng.bernoulli(kKeep)) text += '\0' + s;
      }
      common::Bytes config;
      for (int i = 0; i < 6; ++i) {
        config += "victim_" + token(rng, 8) + '\0';
      }
      const auto xor_key = static_cast<std::uint8_t>(rng.uniform_int(1, 255));
      const pe::Image module = pe::Builder{}
                                   .program("kit.module")
                                   .filename("mod.dll")
                                   .section(".text", module_text, true)
                                   .build();
      pe::Builder builder;
      builder.program("kit.main")
          .filename("svc" + std::to_string(v) + ".exe")
          .timestamp(static_cast<std::int64_t>(kit * 1000 + v))
          .section(".text", text, true)
          .section(".data", config, false, true)
          .section(section, code.substr(0, 256), false)
          .encrypted_resource(101, "MODULE", module.serialize(), xor_key);
      for (const auto& [dll, fns] : imports) builder.import(dll, fns);
      pe::Image image = builder.build();
      if (signs) pki::sign_image(image, cert, key);
      pile.specimens.push_back(analysis::LabelledSpecimen{
          "k" + std::to_string(kit) + "v" + std::to_string(v),
          image.serialize()});
      pile.expected.push_back(
          Expected{static_cast<std::uint32_t>(kit), signs, xor_key});
    }
  }
  return pile;
}

/// Share of specimens whose cluster is their kit's: the cluster holding
/// most of the kit, provided the kit also holds most of that cluster.
double lineage_recall(const std::vector<std::vector<std::size_t>>& groups,
                      const std::vector<Expected>& expected) {
  std::map<std::uint32_t, std::map<std::size_t, std::size_t>> kit_in_group;
  std::vector<std::uint32_t> majority(groups.size(), 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::map<std::uint32_t, std::size_t> kits;
    for (const std::size_t i : groups[g]) {
      ++kits[expected[i].kit];
      ++kit_in_group[expected[i].kit][g];
    }
    std::size_t best = 0;
    for (const auto& [kit, count] : kits) {
      if (count > best) {
        best = count;
        majority[g] = kit;
      }
    }
  }
  std::size_t recalled = 0;
  for (const auto& [kit, groups_of_kit] : kit_in_group) {
    std::size_t best_group = 0, best = 0;
    for (const auto& [g, count] : groups_of_kit) {
      if (count > best) {
        best = count;
        best_group = g;
      }
    }
    if (majority[best_group] == kit) recalled += best;
  }
  return expected.empty() ? 0.0
                          : static_cast<double>(recalled) /
                                static_cast<double>(expected.size());
}

}  // namespace

Iteration run_attribution_pile(const RunConfig& config, const PileSize& size) {
  std::optional<Tracer> traced;
  if (config.trace) traced.emplace(0);
  Tracer* tracer = traced ? &*traced : nullptr;
  const std::size_t main = 0;
  Iteration it;
  const auto setup_start = Clock::now();

  // A stolen code-signing identity under a commercial root the analyst's
  // workstation trusts (the Realtek/JMicron pattern of paper §II).
  const std::uint64_t key_seed = sim::derive_seed(config.seed, 0x51);
  auto ca = pki::CertificateAuthority::create_root(
      "Commercial Root CA", pki::HashAlgorithm::kStrong64, 0,
      sim::days(20000), key_seed);
  const auto key = pki::KeyPair::generate(key_seed ^ 0x99);
  const auto cert = ca.issue("Realtek Semiconductor Corp",
                             pki::kUsageCodeSigning,
                             pki::HashAlgorithm::kStrong64, 0,
                             sim::days(20000), key);
  pki::CertStore store;
  pki::TrustStore trust;
  store.add(ca.certificate());
  store.add(cert);
  trust.trust_root(ca.certificate().serial);
  Pile pile;
  {
    Scope span(tracer, main, "pe.build");
    pile = build_pile(config.seed, size, cert, key);
  }
  const std::size_t n = pile.specimens.size();

  const auto run_start = Clock::now();
  it.setup_s = seconds_between(setup_start, run_start);
  std::uint64_t dissect_failures = 0;
  {
    Scope span(tracer, main, "analysis.dissect");
    for (std::size_t i = 0; i < n; ++i) {
      const auto report = analysis::dissect(pile.specimens[i].bytes, store,
                                            trust, kAnalysisTime);
      const Expected& want = pile.expected[i];
      const bool verdict_ok =
          want.signed_image
              ? report.signature.valid()
              : report.signature.status == pki::SignatureStatus::kUnsigned;
      const bool key_ok =
          report.resources.size() == 1 &&
          report.resources[0].recovered_xor_key == want.xor_key &&
          report.embedded_pe_count() == 1;
      if (!report.parse_ok || !verdict_ok || !key_ok) ++dissect_failures;
    }
  }
  analysis::FeatureDict dict;
  std::vector<analysis::SpecimenFeatures> features;
  {
    Scope span(tracer, main, "analysis.extract");
    features = analysis::extract_pile(pile.specimens, dict);
  }
  std::vector<std::vector<std::size_t>> groups;
  analysis::LshStats lsh;
  if (!tracer) {
    groups = analysis::cluster_features_lsh(features, kThreshold, {}, &lsh);
  } else {
    // The traced run takes cluster_features_lsh apart so each stage gets
    // its own span, keeping its use of the sweep pool; the partition must
    // come out the same.
    std::vector<analysis::MinHashSketch> sketches;
    {
      Scope span(tracer, main, "analysis.sketch");
      sketches = sim::Sweep::map_items(
          features, [](const analysis::SpecimenFeatures& f) {
            return analysis::minhash_sketch(f);
          });
    }
    std::vector<analysis::CandidatePair> candidates;
    {
      Scope span(tracer, main, "analysis.lsh");
      candidates = analysis::lsh_candidate_pairs(sketches);
    }
    {
      Scope span(tracer, main, "analysis.confirm_cluster");
      std::vector<double> scores(candidates.size());
      constexpr std::size_t kBlock = 2048;
      sim::default_sweep_runner().run_indexed(
          (candidates.size() + kBlock - 1) / kBlock, [&](std::size_t b) {
            const std::size_t end =
                std::min(b * kBlock + kBlock, candidates.size());
            for (std::size_t k = b * kBlock; k < end; ++k) {
              scores[k] = analysis::similarity(features[candidates[k].i],
                                               features[candidates[k].j]);
            }
          });
      analysis::UnionFind uf(n);
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        if (scores[k] < kThreshold) continue;
        ++lsh.confirmed_edges;
        uf.unite(candidates[k].i, candidates[k].j);
      }
      groups = uf.groups();
    }
    lsh.total_pairs = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    lsh.candidate_pairs = candidates.size();
  }
  it.run_s = seconds_between(run_start, Clock::now());
  it.work = static_cast<double>(n);
  it.attempted = n;
  it.failed = dissect_failures;

  const double recall = lineage_recall(groups, pile.expected);
  std::uint64_t partition = cnc::kChecksumBasis;
  for (const auto& group : groups) {
    partition = cnc::checksum_mix(partition, group.size());
    for (const std::size_t i : group) {
      partition = cnc::checksum_mix(partition, i);
    }
  }
  it.extra["lineage_recall"] = recall;
  it.outputs = {{"partition_digest", partition},
                {"clusters", groups.size()},
                {"candidate_pairs", lsh.candidate_pairs},
                {"confirmed_edges", lsh.confirmed_edges},
                {"lineage_recall_ppm",
                 static_cast<std::uint64_t>(recall * 1e6 + 0.5)}};

  Metrics& m = it.layer;
  m["analysis.candidate_pairs"] = static_cast<double>(lsh.candidate_pairs);
  m["analysis.confirmed_edges"] = static_cast<double>(lsh.confirmed_edges);
  m["analysis.candidate_precision"] =
      lsh.candidate_pairs == 0 ? 0.0
                               : static_cast<double>(lsh.confirmed_edges) /
                                     static_cast<double>(lsh.candidate_pairs);
  m["analysis.reduction"] = lsh.reduction();
  m["analysis.dict_entries"] = static_cast<double>(dict.size());
  if (tracer) {
    it.spans = tracer->take_merged();
    const auto spans = aggregate(it.spans);
    for (const char* name :
         {"pe.build", "analysis.dissect", "analysis.extract", "analysis.sketch",
          "analysis.lsh", "analysis.confirm_cluster"}) {
      m[std::string(name) + "_s"] = span_seconds(spans, name);
    }
  }
  return it;
}

}  // namespace perfbench
