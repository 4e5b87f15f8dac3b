// Shared plumbing for the OSPREY end-to-end benchmark: clocks, seeded
// inputs, latency samples, the result record every workload fills, and the
// process-level environment probes (peak RSS, nproc).
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// splitmix64: a tiny seeded generator whose sequence is fixed by the seed
/// on every platform and standard library.
class SeededRng {
 public:
  explicit SeededRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// A fixed-size byte string derived from (seed, key): the expected result
/// bytes of a task, reproducible by the checker without storing them.
std::string derived_bytes(std::uint64_t seed, std::uint64_t key,
                          std::size_t size);

/// Latency samples in microseconds.
class Samples {
 public:
  void add_ns(std::int64_t ns) { us_.push_back(static_cast<double>(ns) * 1e-3); }
  std::size_t size() const { return us_.size(); }
  void merge(const Samples& other) {
    us_.insert(us_.end(), other.us_.begin(), other.us_.end());
  }
  /// Linear-interpolated quantile (q in [0, 1]); 0 when empty.
  double quantile(double q) const;
  /// The reported form: the samples (in arrival order) are cut into up to
  /// kSlices consecutive slices, each keeping at least 10 samples beyond
  /// the quantile, and the median of the slices' quantiles is returned, so
  /// a burst of machine noise in one slice does not move it.
  double sliced_quantile(double q) const;

 private:
  std::vector<double> us_;
};

double median(std::vector<double> values);

/// Slices per measured window for sliced quantiles and rates.
constexpr int kSlices = 5;

/// Events per second over [t0_ns, t1_ns): the window is cut into kSlices
/// equal slices and the median of the per-slice rates is returned.
double sliced_rate(const std::vector<std::int64_t>& event_ns,
                   std::int64_t t0_ns, std::int64_t t1_ns);

/// One workload run's output: named metrics with units, the operation
/// tally, and every correctness violation found.
struct RunResult {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  /// Exact per-layer counts (deep_backlog's determinism check compares them
  /// across runs of one seed).
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed correctness check (voids the run).
  void violation(const std::string& what);
  /// Tally one operation; an unexpected error counts as failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for log devices (inside the checkout).
  std::string work_dir;
  /// Where the traced run writes its Chrome trace and layer table.
  std::string out_dir;
};

/// Pin the calling thread to the given CPU slots: slot i is the i-th CPU
/// this process may run on (wrapping when there are fewer). Threads the
/// caller creates afterwards inherit the set. Workloads pin their threads
/// so the scheduler's placement cannot flip latencies between runs.
void pin_this_thread(std::initializer_list<int> slots);

/// Fresh empty directory (removed recursively first if present).
void reset_dir(const std::string& path);
void remove_tree(const std::string& path);

/// Number of setups per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;

}  // namespace perfbench
