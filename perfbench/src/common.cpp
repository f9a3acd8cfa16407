#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/profile.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double sentinel_seconds(int reps) {
  constexpr std::size_t kN = std::size_t{1} << 18;  // 2 MiB of doubles
  std::vector<double> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) a[i] = 1.0 + 1e-6 * static_cast<double>(i);
  std::vector<double> samples;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int pass = 0; pass < 200; ++pass) {
      for (std::size_t i = 1; i + 1 < kN; ++i) {
        b[i] = 0.25 * (a[i - 1] + a[i + 1]) + 0.5 * a[i];
      }
      a.swap(b);
    }
    samples.push_back(now_s() - t0);
    sink += a[kN / 2];
  }
  // Keeps the loop observable so it cannot be folded away.
  if (!std::isfinite(sink)) std::fputs("sentinel: non-finite\n", stderr);
  return median(std::move(samples));
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss also keeps the peak of the process that exec'd us (the
  // Python runner), which would hide the workload's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return static_cast<double>(swsim::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
