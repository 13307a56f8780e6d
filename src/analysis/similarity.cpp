#include "analysis/similarity.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "analysis/static_analysis.hpp"
#include "analysis/union_find.hpp"
#include "pe/image.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

constexpr std::size_t kMinStringLength = 6;

/// Rough distinct-feature count per specimen, used to pre-size the shared
/// FeatureDict before the serial intern stage of a pile. Only a rehash
/// hint — real piles dedup heavily across specimens, so this overshoots,
/// which is the cheap direction.
constexpr std::size_t kFeaturesPerSpecimenHint = 48;

/// Specimens per extract_pile block: one pool task each for the carve,
/// enough to keep every worker busy beside the intern task, few enough
/// that the staged feature bytes stay small.
constexpr std::size_t kCarveBlock = 256;

/// Resource nesting extract_pile descends through (extract_features'
/// default).
constexpr int kMaxCarveDepth = 4;

/// Pairs scored per sweep task. Coarse enough that the per-task dispatch
/// (one std::function call, two clock reads) is noise; fine enough that
/// the triangle load-balances across workers.
constexpr std::uint64_t kPairBlock = 4096;

/// Number of strict-upper-triangle pairs of an n x n matrix.
std::uint64_t triangle_size(std::size_t n) {
  return n < 2 ? 0
               : static_cast<std::uint64_t>(n) * (n - 1) / 2;
}

/// Scores pairs [begin, end) of the triangle into out[begin - base..),
/// decoding (i,j) arithmetically once and stepping it per pair.
void score_pair_range(const std::vector<SpecimenFeatures>& features,
                      std::uint64_t begin, std::uint64_t end,
                      std::uint64_t base, double* out) {
  const std::size_t n = features.size();
  auto [i, j] = triangle_pair(begin, n);
  for (std::uint64_t k = begin; k < end; ++k) {
    out[k - base] = similarity(features[i], features[j]);
    if (++j == n) {
      ++i;
      j = i + 1;
    }
  }
}

/// Sweeps pair scores for triangle indices [begin, begin + count) into
/// out[0..count), in kPairBlock tasks. Each task owns a distinct slice of
/// `out`, so the fan-out needs no synchronisation and the result is
/// byte-identical to the serial loop regardless of worker count.
void sweep_pair_scores(const std::vector<SpecimenFeatures>& features,
                       std::uint64_t begin, std::uint64_t count,
                       double* out) {
  const std::uint64_t blocks = (count + kPairBlock - 1) / kPairBlock;
  sim::default_sweep_runner().run_indexed(
      static_cast<std::size_t>(blocks), [&](std::size_t b) {
        const std::uint64_t lo = begin + b * kPairBlock;
        const std::uint64_t hi = std::min(lo + kPairBlock, begin + count);
        score_pair_range(features, lo, hi, begin, out);
      });
}

/// The SpecimenFeatures vector a carved feature lands in.
using FeatureClass = std::vector<FeatureId> SpecimenFeatures::*;
constexpr FeatureClass kStringClass = &SpecimenFeatures::strings;
constexpr FeatureClass kImportClass = &SpecimenFeatures::imports;
constexpr FeatureClass kSectionClass = &SpecimenFeatures::section_names;

std::optional<pe::Image> try_parse(std::string_view bytes) {
  try {
    return pe::Image::parse(bytes);
  } catch (const pe::ParseError&) {
    return std::nullopt;
  }
}

/// Calls visit(class, feature) for every feature of a parsed image in
/// extraction order: per section its name then its strings, the imports
/// ("dll!fn", built in `scratch`), the version blob's strings, then each
/// resource — carved recursively when its XOR-recovered payload parses as
/// a PE, scanned for strings otherwise. The order fixes the first-seen
/// FeatureDict ids, so it is part of the contract.
template <class Visit>
void visit_image(const pe::Image& image, int max_depth, std::string& scratch,
                 Visit& visit) {
  const auto visit_strings = [&](std::string_view data) {
    for_each_string(data, kMinStringLength, [&](std::string_view s) {
      visit(kStringClass, s);
    });
  };
  for (const auto& section : image.sections) {
    visit(kSectionClass, section.name);
    visit_strings(section.data);
  }
  for (const auto& import : image.imports) {
    for (const auto& fn : import.functions) {
      scratch.assign(import.dll);
      scratch.push_back('!');
      scratch.append(fn);
      visit(kImportClass, scratch);
    }
  }
  visit_strings(image.version_info);
  if (max_depth <= 0) return;
  for (const auto& resource : image.resources) {
    common::Bytes decrypted;
    std::string_view payload = resource.data;
    if (auto key = brute_xor_key(resource.data)) {
      decrypted = common::xor_cipher(resource.data, *key);
      payload = decrypted;
    }
    std::optional<pe::Image> nested;
    if (pe::Image::looks_like_pe(payload)) nested = try_parse(payload);
    if (nested) {
      visit_image(*nested, max_depth - 1, scratch, visit);
    } else {
      visit_strings(payload);
    }
  }
}

/// The one carve path behind extract_features and extract_pile: every
/// feature of one specimen in extraction order; bytes that do not parse
/// as a PE yield their printable strings only.
template <class Visit>
void visit_features(std::string_view bytes, int max_depth, Visit&& visit) {
  if (const auto image = try_parse(bytes)) {
    std::string scratch;
    visit_image(*image, max_depth, scratch, visit);
  } else {
    for_each_string(bytes, kMinStringLength, [&](std::string_view s) {
      visit(kStringClass, s);
    });
  }
}

/// One specimen's features as carved on the pool, waiting for the
/// in-order intern: the feature bytes back to back in `text`, and per
/// feature its class and end offset there.
struct CarvedSpecimen {
  struct Feature {
    std::size_t end = 0;
    FeatureClass cls = kStringClass;
  };
  std::string text;
  std::vector<Feature> features;
};

void sort_unique(std::vector<FeatureId>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

void sort_unique(SpecimenFeatures& f) {
  sort_unique(f.strings);
  sort_unique(f.imports);
  sort_unique(f.section_names);
}

/// Jaccard over two sorted, deduplicated id spans: one branch-light linear
/// merge counts the intersection (the seed walked a std::set per element).
/// Counts equal the seed's set counts — interning is a bijection — so the
/// resulting double is bit-identical.
double jaccard(const std::vector<FeatureId>& a,
               const std::vector<FeatureId>& b) {
  if (a.empty() && b.empty()) return 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t intersection = 0;
  while (i < a.size() && j < b.size()) {
    const FeatureId x = a[i];
    const FeatureId y = b[j];
    intersection += static_cast<std::size_t>(x == y);
    i += static_cast<std::size_t>(x <= y);
    j += static_cast<std::size_t>(y <= x);
  }
  const std::size_t union_size = a.size() + b.size() - intersection;
  return union_size == 0
             ? 0.0
             : static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

}  // namespace

std::vector<SpecimenFeatures> extract_pile(
    const std::vector<LabelledSpecimen>& specimens, FeatureDict& dict) {
  const std::size_t n = specimens.size();
  dict.reserve(n * kFeaturesPerSpecimenHint);
  std::vector<SpecimenFeatures> features(n);
  const std::size_t blocks = (n + kCarveBlock - 1) / kCarveBlock;
  // Two carve buffers, reused block after block: the pool carves block b
  // into one while a single task interns block b - 1 from the other, so
  // at most two blocks of feature bytes are held however large the pile.
  std::array<std::vector<CarvedSpecimen>, 2> carved;
  for (auto& buffer : carved) buffer.resize(std::min(n, kCarveBlock));
  const auto carve = [&](std::size_t block, std::size_t k) {
    auto& slot = carved[block % 2][k];
    slot.text.clear();
    slot.features.clear();
    visit_features(specimens[block * kCarveBlock + k].bytes, kMaxCarveDepth,
                   [&](FeatureClass cls, std::string_view s) {
                     slot.text.append(s);
                     slot.features.push_back({slot.text.size(), cls});
                   });
  };
  // Blocks intern one at a time, in order, and within a block specimen by
  // specimen and feature by feature: exactly the ids a serial
  // extract_features loop assigns.
  const auto intern = [&](std::size_t block) {
    const std::size_t begin = block * kCarveBlock;
    const std::size_t count = std::min(kCarveBlock, n - begin);
    for (std::size_t k = 0; k < count; ++k) {
      const auto& slot = carved[block % 2][k];
      auto& out = features[begin + k];
      std::size_t start = 0;
      for (const auto& f : slot.features) {
        const std::string_view s(slot.text.data() + start, f.end - start);
        (out.*f.cls).push_back(dict.intern(s));
        start = f.end;
      }
    }
  };
  auto& pool = sim::default_sweep_runner();
  for (std::size_t step = 0; step <= blocks; ++step) {
    const std::size_t interning = step > 0 ? 1 : 0;
    const std::size_t carving =
        step < blocks ? std::min(kCarveBlock, n - step * kCarveBlock) : 0;
    pool.run_indexed(interning + carving, [&](std::size_t t) {
      if (t < interning) {
        intern(step - 1);
      } else {
        carve(step, t - interning);
      }
    });
  }
  pool.run_indexed(blocks, [&](std::size_t block) {
    const std::size_t end = std::min(n, (block + 1) * kCarveBlock);
    for (std::size_t i = block * kCarveBlock; i < end; ++i) {
      sort_unique(features[i]);
    }
  });
  return features;
}

SpecimenFeatures extract_features(std::string_view bytes, FeatureDict& dict,
                                  int max_depth) {
  SpecimenFeatures out;
  visit_features(bytes, max_depth, [&](FeatureClass cls, std::string_view s) {
    (out.*cls).push_back(dict.intern(s));
  });
  sort_unique(out);
  return out;
}

double similarity(const SpecimenFeatures& a, const SpecimenFeatures& b) {
  // Engineering artifacts (imports, section layout) weigh more than
  // free-floating strings. A feature class empty on *both* sides carries no
  // evidence either way, so the weights are renormalized over the classes
  // present in at least one operand — otherwise a specimen with, say, no
  // extracted strings could never reach 1.0 against itself and every
  // off-diagonal involving it would be silently deflated.
  struct Class {
    double weight;
    const std::vector<FeatureId>& lhs;
    const std::vector<FeatureId>& rhs;
  };
  const Class classes[] = {
      {0.4, a.strings, b.strings},
      {0.35, a.imports, b.imports},
      {0.25, a.section_names, b.section_names},
  };
  double score = 0.0;
  double active_weight = 0.0;
  for (const auto& c : classes) {
    if (c.lhs.empty() && c.rhs.empty()) continue;
    score += c.weight * jaccard(c.lhs, c.rhs);
    active_weight += c.weight;
  }
  // Every class empty on both sides: the feature sets are (vacuously)
  // identical, so two featureless specimens compare as equal.
  if (active_weight == 0.0) return 1.0;
  return score / active_weight;
}

double specimen_similarity(std::string_view a, std::string_view b) {
  FeatureDict dict;
  const auto fa = extract_features(a, dict);
  const auto fb = extract_features(b, dict);
  return similarity(fa, fb);
}

TrianglePair triangle_pair(std::uint64_t k, std::size_t n) {
  // Pairs before row i: S(i) = i*n - i*(i+1)/2. Inverting S(i) <= k gives
  // i = n - 1/2 - sqrt((n - 1/2)² - 2k); the double approximation can be
  // off by one near row boundaries, so fix up exactly in integers.
  const double nd = static_cast<double>(n) - 0.5;
  const double disc = nd * nd - 2.0 * static_cast<double>(k);
  double approx = nd - std::sqrt(disc > 0.0 ? disc : 0.0);
  if (approx < 0.0) approx = 0.0;
  std::size_t i = static_cast<std::size_t>(approx);
  if (i > n - 2) i = n - 2;
  const auto row_start = [n](std::size_t r) {
    return static_cast<std::uint64_t>(r) * (2 * n - r - 1) / 2;
  };
  while (row_start(i) > k) --i;
  while (i + 1 <= n - 2 && row_start(i + 1) <= k) ++i;
  return {i, i + 1 + static_cast<std::size_t>(k - row_start(i))};
}

std::vector<double> similarity_triangle(
    const std::vector<SpecimenFeatures>& features) {
  std::vector<double> scores(triangle_size(features.size()));
  sweep_pair_scores(features, 0, scores.size(), scores.data());
  return scores;
}

std::vector<double> similarity_matrix(
    const std::vector<LabelledSpecimen>& specimens) {
  const std::size_t n = specimens.size();
  // extract_pile carves on the pool and interns in order; the pure
  // pairwise scores sweep. Each block of triangle indices is
  // decoded arithmetically and scatters its own symmetric cells — every
  // matrix cell has exactly one writer, so no pair list and no score
  // staging vector are ever materialized.
  FeatureDict dict;
  const auto features = extract_pile(specimens, dict);
  std::vector<double> matrix(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) matrix[i * n + i] = 1.0;
  const std::uint64_t total = triangle_size(n);
  const std::uint64_t blocks = (total + kPairBlock - 1) / kPairBlock;
  sim::default_sweep_runner().run_indexed(
      static_cast<std::size_t>(blocks), [&](std::size_t b) {
        const std::uint64_t lo = b * kPairBlock;
        const std::uint64_t hi = std::min(lo + kPairBlock, total);
        auto [i, j] = triangle_pair(lo, n);
        for (std::uint64_t k = lo; k < hi; ++k) {
          const double score = similarity(features[i], features[j]);
          matrix[i * n + j] = score;
          matrix[j * n + i] = score;
          if (++j == n) {
            ++i;
            j = i + 1;
          }
        }
      });
  return matrix;
}

std::vector<std::vector<std::size_t>> cluster_feature_indices(
    const std::vector<SpecimenFeatures>& features, double threshold) {
  const std::size_t n = features.size();
  UnionFind components(n);
  // Stream the triangle in chunks: score a chunk on the pool, fold its
  // above-threshold edges serially, reuse the buffer. Edge order within
  // the fold is lexicographic, and smallest-root unions are order-
  // invariant anyway, so chunking does not affect the clustering.
  constexpr std::uint64_t kStreamChunk = std::uint64_t{1} << 22;
  const std::uint64_t total = triangle_size(n);
  std::vector<double> chunk(
      static_cast<std::size_t>(std::min(total, kStreamChunk)));
  for (std::uint64_t begin = 0; begin < total; begin += kStreamChunk) {
    const std::uint64_t count = std::min(kStreamChunk, total - begin);
    sweep_pair_scores(features, begin, count, chunk.data());
    auto [i, j] = triangle_pair(begin, n);
    for (std::uint64_t k = 0; k < count; ++k) {
      if (chunk[static_cast<std::size_t>(k)] >= threshold) {
        components.unite(i, j);
      }
      if (++j == n) {
        ++i;
        j = i + 1;
      }
    }
  }
  return components.groups();
}

std::vector<std::vector<std::string>> cluster_specimens(
    const std::vector<LabelledSpecimen>& specimens, double threshold) {
  // Exact path: extract once, stream the scored upper triangle into the
  // smallest-root union-find — same scores and same canonical grouping as
  // the old build-the-matrix-then-scan-it version, at half the peak memory
  // (no n x n matrix, only the O(chunk) score buffer).
  FeatureDict dict;
  const auto features = extract_pile(specimens, dict);
  std::vector<std::vector<std::string>> out;
  for (const auto& group : cluster_feature_indices(features, threshold)) {
    auto& labels = out.emplace_back();
    labels.reserve(group.size());
    for (const std::size_t idx : group) labels.push_back(specimens[idx].label);
  }
  return out;
}

}  // namespace cyd::analysis
