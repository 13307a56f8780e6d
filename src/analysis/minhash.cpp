#include "analysis/minhash.hpp"

#include <algorithm>

#include "analysis/union_find.hpp"
#include "sim/sweep.hpp"

namespace cyd::analysis {
namespace {

/// SplitMix64 finalizer: the row hash is mix64(key ^ row_seed). Strong
/// enough avalanche that the min over a feature set behaves like an
/// independent uniform permutation per row, cheap enough that a sketch is
/// features x hashes() of these and nothing else.
std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

/// Class tags keep the three feature classes disjoint in hash space: the
/// dict interns one id per distinct *string*, so without the tag a
/// section named ".text" and a printable string ".text" would collide
/// into one sketch element even though the exact kernel scores them in
/// separate classes.
constexpr std::uint64_t kStringTag = 0;
constexpr std::uint64_t kImportTag = 1;
constexpr std::uint64_t kSectionTag = 2;

void fold_class(const std::vector<FeatureId>& ids, std::uint64_t tag,
                const std::vector<std::uint64_t>& seeds,
                std::vector<std::uint64_t>& sig) {
  for (const FeatureId id : ids) {
    const std::uint64_t key = (id << 2) | tag;
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      sig[k] = std::min(sig[k], mix64(key ^ seeds[k]));
    }
  }
}

/// The fixed per-row seed schedule for `params`. Each thread keeps the
/// last schedule it built and rebuilds only when (seed, hashes()) changes,
/// so a pile sketched under one params value builds it once per worker.
const std::vector<std::uint64_t>& row_seeds(const MinHashParams& params) {
  thread_local std::uint64_t seed = 0;
  thread_local std::vector<std::uint64_t> seeds;
  if (seed != params.seed || seeds.size() != params.hashes()) {
    seed = params.seed;
    seeds.resize(params.hashes());
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      seeds[k] = sim::derive_seed(seed, k);
    }
  }
  return seeds;
}

/// FNV-1a over one band's rows plus the band index, so identical row
/// values in different bands land in different buckets.
std::uint64_t band_hash(const std::uint64_t* rows, std::size_t count,
                        std::size_t band) {
  std::uint64_t h = 14695981039346656037ull ^ band;
  for (std::size_t r = 0; r < count; ++r) {
    h = (h ^ rows[r]) * 1099511628211ull;
  }
  return h;
}

/// All pairs of specimens whose sketches collide in `band`, sorted and
/// unique with i < j, at exactly their final size. Specimens sort by
/// (band hash, index), so each bucket is a run with members ascending;
/// walking specimens in index order and pairing each with the later
/// members of its bucket then emits the pairs already in order.
std::vector<CandidatePair> band_pairs(
    const std::vector<MinHashSketch>& sketches, const MinHashParams& params,
    std::size_t band) {
  const std::size_t n = sketches.size();
  struct Entry {
    std::uint64_t hash;
    std::uint32_t index;
  };
  std::vector<Entry> entries(n);
  for (std::size_t s = 0; s < n; ++s) {
    entries[s] = {band_hash(sketches[s].sig.data() + band * params.rows,
                            params.rows, band),
                  static_cast<std::uint32_t>(s)};
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.hash != y.hash ? x.hash < y.hash : x.index < y.index;
  });
  // For each specimen: where its bucket's members after it begin and end.
  std::vector<std::uint32_t> next(n);
  std::vector<std::uint32_t> bucket_end(n);
  std::size_t total = 0;
  for (std::size_t lo = 0; lo < n;) {
    std::size_t hi = lo + 1;
    while (hi < n && entries[hi].hash == entries[lo].hash) ++hi;
    total += (hi - lo) * (hi - lo - 1) / 2;
    for (std::size_t k = lo; k < hi; ++k) {
      next[entries[k].index] = static_cast<std::uint32_t>(k + 1);
      bucket_end[entries[k].index] = static_cast<std::uint32_t>(hi);
    }
    lo = hi;
  }
  std::vector<CandidatePair> pairs;
  pairs.reserve(total);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = next[s]; k < bucket_end[s]; ++k) {
      pairs.push_back({static_cast<std::uint32_t>(s), entries[k].index});
    }
  }
  return pairs;
}

}  // namespace

MinHashSketch minhash_sketch(const SpecimenFeatures& features,
                             const MinHashParams& params) {
  const auto& seeds = row_seeds(params);
  MinHashSketch sketch;
  sketch.sig.assign(params.hashes(), kEmptySketchSlot);
  fold_class(features.strings, kStringTag, seeds, sketch.sig);
  fold_class(features.imports, kImportTag, seeds, sketch.sig);
  fold_class(features.section_names, kSectionTag, seeds, sketch.sig);
  return sketch;
}

std::vector<CandidatePair> lsh_candidate_pairs(
    const std::vector<MinHashSketch>& sketches,
    const MinHashParams& params) {
  const std::size_t n = sketches.size();
  if (n < 2 || params.bands == 0) return {};
  // One probe task per band, each owning its list, so the fan-out needs no
  // synchronisation; each list comes out sorted and unique, and a
  // pairwise set_union tree on the pool merges them. The result is the
  // sorted-unique union, identical at any worker count.
  auto& pool = sim::default_sweep_runner();
  std::vector<std::vector<CandidatePair>> lists(params.bands);
  pool.run_indexed(lists.size(), [&](std::size_t band) {
    lists[band] = band_pairs(sketches, params, band);
  });
  for (std::size_t width = 1; width < lists.size(); width *= 2) {
    const std::size_t merges = (lists.size() + 2 * width - 1) / (2 * width);
    pool.run_indexed(merges, [&](std::size_t m) {
      const std::size_t a = 2 * width * m;
      const std::size_t b = a + width;
      if (b >= lists.size()) return;
      std::vector<CandidatePair> merged(lists[a].size() + lists[b].size());
      merged.erase(std::set_union(lists[a].begin(), lists[a].end(),
                                  lists[b].begin(), lists[b].end(),
                                  merged.begin()),
                   merged.end());
      merged.shrink_to_fit();
      lists[a] = std::move(merged);
      lists[b] = {};
    });
  }
  return std::move(lists[0]);
}

std::vector<std::vector<std::size_t>> cluster_features_lsh(
    const std::vector<SpecimenFeatures>& features, double threshold,
    const MinHashParams& params, LshStats* stats) {
  const std::size_t n = features.size();
  // Stage 1: sketches, one sweep task per specimen.
  const auto sketches = sim::Sweep::map_items(
      features,
      [&](const SpecimenFeatures& f) { return minhash_sketch(f, params); });
  // Stage 2: banding.
  const auto candidates = lsh_candidate_pairs(sketches, params);
  // Stage 3: exact confirmation of candidates only, swept in blocks, then
  // a serial fold of confirmed edges into the union-find. Scores are the
  // exact kernel's doubles — the candidate stage decides *which* pairs get
  // scored, never what a score is.
  std::vector<double> scores(candidates.size());
  constexpr std::size_t kConfirmBlock = 2048;
  const std::size_t blocks =
      (candidates.size() + kConfirmBlock - 1) / kConfirmBlock;
  sim::default_sweep_runner().run_indexed(blocks, [&](std::size_t b) {
    const std::size_t lo = b * kConfirmBlock;
    const std::size_t hi = std::min(lo + kConfirmBlock, candidates.size());
    for (std::size_t k = lo; k < hi; ++k) {
      scores[k] = similarity(features[candidates[k].i], features[candidates[k].j]);
    }
  });
  UnionFind components(n);
  std::uint64_t confirmed = 0;
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    if (scores[k] < threshold) continue;
    ++confirmed;
    components.unite(candidates[k].i, candidates[k].j);
  }
  if (stats != nullptr) {
    stats->total_pairs =
        n < 2 ? 0 : static_cast<std::uint64_t>(n) * (n - 1) / 2;
    stats->candidate_pairs = candidates.size();
    stats->confirmed_edges = confirmed;
  }
  return components.groups();
}

}  // namespace cyd::analysis
