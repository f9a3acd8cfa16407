// Shared pieces of the benchmark's workload runner: options, the report
// every workload fills, sample statistics, the output digest, and the
// host drift sentinel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload process reports. `end_to_end` is published by
// untraced runs, `per_layer` by traced runs; `info` lines are printed for
// the reader but never published.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
  std::vector<std::string> problems;  // why `correct` is false

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Median of a sample (0 for an empty one).
double median(std::vector<double> v);
// The q-quantile by nearest rank (0 for an empty sample).
double quantile(std::vector<double> v, double q);

// Monotonic seconds since an arbitrary origin.
double now_s();

// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);
std::string hex64(std::uint64_t v);

// A fixed floating-point stencil loop over a 2 MiB buffer that calls no
// repository code. Timed at the start and the end of every run, it shows
// how fast the host was at that moment, so machine drift can be told
// apart from a code change. Returns the median of `reps` timings [s].
double sentinel_seconds(int reps = 5);

// Peak resident set size of this process image [MiB].
double peak_rss_mb();

// Runs `fn` in batches of `batch` calls until `reps` batches are timed;
// returns the median per-call time in microseconds.
template <class Fn>
double per_call_us(Fn&& fn, int batch, int reps = 11) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < batch; ++i) fn();
    samples.push_back((now_s() - t0) * 1e6 / batch);
  }
  return median(std::move(samples));
}

// Workload entry points. Each fills `report`; exceptions escaping them
// mark the run incorrect in main().
void run_llg(const Options& opts, Report& report);
void run_serve(const Options& opts, Report& report);

}  // namespace perfbench
