#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {
namespace {
constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};
}  // namespace

std::int64_t SpanBuffer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint64_t SpanBuffer::add(const char* name, std::int64_t start_ns,
                              std::int64_t end_ns, std::uint64_t parent) {
  const std::uint64_t id =
      (static_cast<std::uint64_t>(index_ + 1) << 40) | records_.size();
  records_.push_back(SpanRecord{name, start_ns, end_ns, id, parent});
  return id;
}

std::size_t SpanBuffer::begin(const char* name, std::uint64_t context) {
  const std::uint64_t parent =
      open_.empty() ? context : records_[open_.back()].id;
  const std::size_t token = records_.size();
  const std::int64_t now = now_ns();
  add(name, now, now, parent);
  open_.push_back(token);
  return token;
}

void SpanBuffer::end(std::size_t token) {
  records_[token].end_ns = now_ns();
  open_.pop_back();
}

Tracer::Tracer(std::size_t shards) {
  const auto epoch = std::chrono::steady_clock::now();
  buffers_.reserve(shards + 1);
  for (std::size_t i = 0; i <= shards; ++i) buffers_.emplace_back(i, epoch);
}

std::vector<SpanRecord> Tracer::take_merged() {
  std::vector<SpanRecord> out;
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b.records().size();
  out.reserve(total);
  for (auto& b : buffers_) {
    const std::vector<SpanRecord> records = b.take();
    out.insert(out.end(), records.begin(), records.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

bool Tracer::write_tsv(const std::string& path,
                       const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tname\tstart_ns\tend_ns\n");
  for (const auto& s : spans) {
    std::fprintf(f, "%llx\t%llx\t%s\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, SpanTotals> aggregate(
    const std::vector<SpanRecord>& spans) {
  // Position of every span in `spans`, addressed by (buffer, sequence).
  std::vector<std::vector<std::uint32_t>> position;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::size_t b = spans[i].buffer();
    const std::size_t seq = spans[i].sequence();
    if (position.size() <= b) position.resize(b + 1);
    if (position[b].size() <= seq) position[b].resize(seq + 1, kNoSpan);
    position[b][seq] = static_cast<std::uint32_t>(i);
  }
  const auto find = [&position](std::uint64_t id) -> std::uint32_t {
    if (id == 0) return kNoSpan;
    const std::size_t b = static_cast<std::size_t>((id >> 40) - 1);
    const std::size_t seq =
        static_cast<std::size_t>(id & ((std::uint64_t{1} << 40) - 1));
    return b < position.size() && seq < position[b].size() ? position[b][seq]
                                                           : kNoSpan;
  };

  // Every child interval clipped to its parent, grouped by parent and
  // ordered by start, then swept once to measure each parent's union.
  struct Child {
    std::uint32_t parent;
    std::int64_t lo, hi;
  };
  std::vector<Child> children;
  children.reserve(spans.size());
  for (const auto& s : spans) {
    const std::uint32_t p = find(s.parent);
    if (p == kNoSpan) continue;
    const std::int64_t lo = std::max(s.start_ns, spans[p].start_ns);
    const std::int64_t hi = std::min(s.end_ns, spans[p].end_ns);
    if (hi > lo) children.push_back(Child{p, lo, hi});
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent : a.lo < b.lo;
            });
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (std::size_t k = 0; k < children.size();) {
    const std::uint32_t p = children[k].parent;
    std::int64_t run_lo = children[k].lo, run_hi = children[k].hi;
    for (++k; k < children.size() && children[k].parent == p; ++k) {
      if (children[k].lo > run_hi) {
        covered[p] += run_hi - run_lo;
        run_lo = children[k].lo;
      }
      run_hi = std::max(run_hi, children[k].hi);
    }
    covered[p] += run_hi - run_lo;
  }

  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans[i].duration_ns());
    t.self_ns += static_cast<double>(spans[i].duration_ns() - covered[i]);
  }
  return out;
}

std::vector<double> busy_by_buffer(const std::vector<SpanRecord>& spans,
                                   const std::string& name,
                                   std::size_t buffers) {
  std::vector<double> busy(buffers, 0.0);
  for (const auto& s : spans) {
    if (s.buffer() < buffers && name == s.name) {
      busy[s.buffer()] += static_cast<double>(s.duration_ns());
    }
  }
  return busy;
}

}  // namespace perfbench
