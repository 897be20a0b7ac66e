// Shared plumbing for the composed soft-timer benchmark: options, the
// measurement clock, CPU-time probes, percentile helpers, the seeded RNG and
// the report every workload fills in.

#ifndef STBENCH_SRC_COMMON_H_
#define STBENCH_SRC_COMMON_H_

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/latency_histogram.h"

namespace stbench {

// The hosts run a nanosecond measurement clock so lateness percentiles are
// not quantized to microseconds.
inline constexpr uint64_t kMeasureHz = 1'000'000'000;
// Tick-valued library defaults are written for the paper's 1 MHz clock; the
// benchmark multiplies them by this factor so each default keeps its meaning
// in time (an 8 us pacing quantum stays 8 us, a 200 ms RTO floor stays 200 ms).
inline constexpr uint64_t kDefaultTickScale = kMeasureHz / 1'000'000;

inline constexpr uint64_t kNsPerUs = 1'000;
inline constexpr uint64_t kNsPerMs = 1'000'000;
inline constexpr uint64_t kNsPerSec = 1'000'000'000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Load runs this long before the window opens, unmeasured, so idle
  // cores, caches and lazily grown structures are warm when timing starts.
  double warmup_seconds = 0.5;
  bool trace = false;
  bool smoke = false;          // small scale, for the harness tests
  std::string trace_out;       // Chrome trace-event JSON path ("" = none)
};

// Nanoseconds on CLOCK_MONOTONIC (the clock std::chrono::steady_clock reads).
inline uint64_t MonoNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * kNsPerSec +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t ClockNs(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * kNsPerSec +
         static_cast<uint64_t>(ts.tv_nsec);
}

inline uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }
inline uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

// CPU clock of the calling thread, readable from any thread of the process.
inline clockid_t CurrentThreadCpuClock() {
  clockid_t id = CLOCK_THREAD_CPUTIME_ID;
  pthread_getcpuclockid(pthread_self(), &id);
  return id;
}

double PeakRssMb();

// splitmix64: small, fast, and identical on every platform, so one seed
// gives one input set everywhere.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double Unit() { return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(double p) { return Unit() <= p; }
  // Exponential with the given mean.
  double Exp(double mean);
  // Log-uniform over [lo, hi].
  double LogUniform(double lo, double hi);

 private:
  uint64_t state_;
};

// Exact percentile of a sample (nearest-rank with linear interpolation);
// sorts `values`. 0 when empty.
double Percentile(std::vector<uint64_t>& values, double p);

// Percentile of a LatencyHistogram, interpolated linearly inside the bucket
// holding the rank so that values are not pinned to bucket bounds.
double InterpPercentile(const softtimer::LatencyHistogram& h, double p);

// Dispatches outside the paper's bound T < actual < T + X + 1, read off a
// lateness histogram (lateness = actual - T): lateness 0 is an early (or
// on-the-deadline) fire, lateness > X is past the backup bound. A bucket
// straddling X counts as a miss, so the count errs toward failing.
uint64_t BoundMisses(const softtimer::LatencyHistogram& h, uint64_t x_ticks);

// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run of one workload reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // correctness-check violations
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Per-layer figures printed in the summary only: latency percentiles of a
  // layer that several workloads do not run read a constant 0 there, which
  // the tracked per-layer set avoids for time-valued metrics.
  std::vector<Metric> summary_only;
  std::vector<std::string> notes;     // human-readable summary lines

  void E2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    per_layer.push_back({name, v, unit});
  }
  void Summary(const std::string& name, double v, const std::string& unit) {
    summary_only.push_back({name, v, unit});
  }
  void Fail(const std::string& what) { failures.push_back(what); }
  bool correct() const { return failures.empty(); }
};

// num / den, 0 when den is 0 (a layer that did no work reports 0).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Median (0 when empty).
double Median(std::vector<double> v);

// Lower quartile, interpolated between order statistics (0 when empty).
double LowQuartile(std::vector<double> v);

// Waits until `due_ns` (MonoNs time): sleeps while far away, then spins.
void WaitUntil(uint64_t due_ns);

}  // namespace stbench

#endif  // STBENCH_SRC_COMMON_H_
