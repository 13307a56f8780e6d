#include "stats.hpp"

#include <sched.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

namespace {

/// Candidate percentiles, highest first, that `tail()` steps down through.
constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// 1-based nearest rank of `pct` among `n` samples. The epsilon keeps
/// ranks that are whole numbers in exact arithmetic from rounding up.
std::size_t nearest_rank(double pct, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile of ascending, non-empty `sorted`.
double percentile_sorted(const std::vector<double>& sorted, double pct) {
  return sorted[std::clamp<std::size_t>(nearest_rank(pct, sorted.size()), 1,
                                        sorted.size()) -
                1];
}

}  // namespace

Tail tail(std::vector<double>& samples, double want, std::size_t min_beyond) {
  Tail out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.value = samples.back();
  for (const double pct : kTailLadder) {
    if (pct > want) continue;
    const std::size_t rank = nearest_rank(pct, samples.size());
    if (samples.size() - std::min(rank, samples.size()) >= min_beyond) {
      out.percentile = pct;
      out.value = percentile_sorted(samples, pct);
      return out;
    }
  }
  return out;
}

std::size_t status_kb(std::string_view status_text, std::string_view key) {
  std::size_t pos = 0;
  while (pos < status_text.size()) {
    std::size_t end = status_text.find('\n', pos);
    if (end == std::string_view::npos) end = status_text.size();
    const std::string_view line = status_text.substr(pos, end - pos);
    if (line.size() > key.size() && line.substr(0, key.size()) == key &&
        line[key.size()] == ':') {
      const std::string digits(line.substr(key.size() + 1));
      char* parsed_end = nullptr;
      const unsigned long long kb =
          std::strtoull(digits.c_str(), &parsed_end, 10);
      return parsed_end == digits.c_str() ? 0 : static_cast<std::size_t>(kb);
    }
    pos = end + 1;
  }
  return 0;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return static_cast<double>(status_kb(text.str(), "VmHWM")) / 1024.0;
}

std::size_t heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

unsigned nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace perfbench
