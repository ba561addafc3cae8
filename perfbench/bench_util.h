#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

// Shared plumbing of the end-to-end benchmark: command-line arguments,
// per-round metric maps, the round loop, clocks, quantiles and the small
// filesystem/process probes the workloads report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What the command line asked for.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory the file workloads keep their engine files under.
  std::string workdir;
};

/// Metric values of one round, by metric name.
using Metrics = std::map<std::string, double>;

/// Everything one workload run produced.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed correctness check; empty means correct.
  std::vector<std::string> check_failures;
  /// Metrics of each round; the run reports the per-metric median.
  std::vector<Metrics> rounds;
  /// Metrics measured once per run (they override round medians).
  Metrics once;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since `t0` (a `NowS()` reading).
inline double Since(double t0) { return NowS() - t0; }

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Peak resident set size of this process so far, in MiB.
inline double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Total size of the regular files under `dir` whose name satisfies
/// `keep` (all files when `keep` is empty).
inline uint64_t DirBytes(
    const std::string& dir,
    const std::function<bool(const std::string&)>& keep = nullptr) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (keep && !keep(it->path().filename().string())) continue;
    total += it->file_size(ec);
  }
  return total;
}

/// Runs `round(i)` for i = 0, 1, ... until at least `min_rounds` rounds
/// have run and `seconds` of wall time have passed. Every round does the
/// same work, so a run is always a whole number of identical rounds.
inline void RunRounds(double seconds, int min_rounds,
                      const std::function<void(int)>& round) {
  const double t0 = NowS();
  int i = 0;
  while (i < min_rounds || Since(t0) < seconds) round(i++);
}

/// SplitMix64 step: derives independent per-purpose seeds from `--seed`.
inline uint64_t DeriveSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + purpose + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
