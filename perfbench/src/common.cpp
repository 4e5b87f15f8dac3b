#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace perfbench {

std::string derived_bytes(std::uint64_t seed, std::uint64_t key,
                          std::size_t size) {
  static const char kAlphabet[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  SeededRng rng(seed * 0x100000001b3ULL ^ key);
  std::string out(size, '\0');
  std::size_t i = 0;
  while (i < size) {
    std::uint64_t word = rng.next();
    for (int b = 0; b < 10 && i < size; ++b, word >>= 6) {
      out[i++] = kAlphabet[word & 63];
    }
  }
  return out;
}

double Samples::quantile(double q) const {
  if (us_.empty()) return 0.0;
  std::vector<double> v = us_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Samples::sliced_quantile(double q) const {
  // Each slice must keep at least 10 samples beyond the quantile; with
  // fewer samples than that allows, the pooled quantile is reported.
  const double beyond = static_cast<double>(us_.size()) * (1.0 - q);
  const int slices = std::min<int>(kSlices, static_cast<int>(beyond / 10.0));
  if (slices <= 1) return quantile(q);
  const std::size_t per = us_.size() / static_cast<std::size_t>(slices);
  std::vector<double> slice_q;
  for (int k = 0; k < slices; ++k) {
    Samples slice;
    const auto first = us_.begin() + static_cast<long>(k * per);
    const auto last = k + 1 == slices ? us_.end() : first + static_cast<long>(per);
    slice.us_.assign(first, last);
    slice_q.push_back(slice.quantile(q));
  }
  return median(slice_q);
}

double sliced_rate(const std::vector<std::int64_t>& event_ns,
                   std::int64_t t0_ns, std::int64_t t1_ns) {
  const double slice_ns = static_cast<double>(t1_ns - t0_ns) / kSlices;
  if (slice_ns <= 0) return 0.0;
  std::vector<double> counts(kSlices, 0.0);
  for (std::int64_t t : event_ns) {
    const auto k = static_cast<long>(static_cast<double>(t - t0_ns) / slice_ns);
    if (k >= 0 && k < kSlices) counts[static_cast<std::size_t>(k)] += 1.0;
  }
  for (double& c : counts) c /= slice_ns * 1e-9;
  return median(counts);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void RunResult::violation(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  violations.push_back(what);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void pin_this_thread(std::initializer_list<int> slots) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int slot : slots) {
    CPU_SET(allowed[static_cast<std::size_t>(slot) % allowed.size()], &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void reset_dir(const std::string& path) {
  remove_tree(path);
  std::filesystem::create_directories(path);
}

}  // namespace perfbench
