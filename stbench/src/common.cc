#include "stbench/src/common.h"

#include <sys/resource.h>

#include <cmath>
#include <thread>

#include "src/core/cpu_relax.h"

namespace stbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Rng::Exp(double mean) { return -mean * std::log(Unit()); }

double Rng::LogUniform(double lo, double hi) {
  return lo * std::exp(std::log(hi / lo) * (Unit() - 0x1.0p-53));
}

double Percentile(std::vector<uint64_t>& values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

double InterpPercentile(const softtimer::LatencyHistogram& h, double p) {
  uint64_t n = h.count();
  if (n == 0) {
    return 0.0;
  }
  double rank = p / 100.0 * static_cast<double>(n);
  double seen = 0.0;
  double result = static_cast<double>(h.max());
  bool done = false;
  h.ForEachNonZero([&](uint64_t lower, uint64_t upper, uint64_t count) {
    if (done) {
      return;
    }
    double c = static_cast<double>(count);
    if (seen + c >= rank) {
      // Clamp the bucket to the exact extremes so the first and last
      // buckets do not interpolate past what was recorded.
      double lo = static_cast<double>(std::max(lower, h.min()));
      double hi = static_cast<double>(std::min(upper, h.max()));
      double frac = c > 0 ? (rank - seen) / c : 0.0;
      result = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      done = true;
    }
    seen += c;
  });
  return result;
}

uint64_t BoundMisses(const softtimer::LatencyHistogram& h, uint64_t x_ticks) {
  uint64_t misses = 0;
  h.ForEachNonZero([&](uint64_t lower, uint64_t upper, uint64_t count) {
    if (lower == 0 || upper > x_ticks) {
      misses += count;
    }
  });
  return misses;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double LowQuartile(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  double rank = 0.25 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void WaitUntil(uint64_t due_ns) {
  for (;;) {
    uint64_t now = MonoNs();
    if (now >= due_ns) {
      return;
    }
    if (due_ns - now > 200 * kNsPerUs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100 * kNsPerUs));
    } else {
      softtimer::CpuRelax();
    }
  }
}

}  // namespace stbench
