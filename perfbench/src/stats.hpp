#pragma once
// Summary statistics and host facts for the benchmark report.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> values);

/// A tail percentile under the reporting rule: the requested percentile is
/// lowered until at least `min_beyond` samples lie strictly above its rank,
/// so a tail figure is never backed by a handful of samples. `percentile`
/// is the one actually reported (0 when there are too few samples for any
/// tail: the value is then the maximum).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Highest of 99.9, 99, 95, 90, 75 and 50 that is <= `want` and keeps
/// >= `min_beyond` samples above its nearest rank. Sorts `samples`.
Tail tail(std::vector<double>& samples, double want,
          std::size_t min_beyond = 10);

/// Value in kB of a "Key:   123 kB" line of a /proc/<pid>/status text; 0
/// when the key is absent or malformed.
std::size_t status_kb(std::string_view status_text, std::string_view key);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// Bytes currently handed out by malloc (live heap, all arenas).
std::size_t heap_in_use();

/// CPUs this process may run on (the affinity mask, as nproc reports it).
unsigned nproc();

/// "model name" of the first CPU in /proc/cpuinfo, or "unknown".
std::string cpu_model();

}  // namespace perfbench
