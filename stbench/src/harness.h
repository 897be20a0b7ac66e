// Host plumbing shared by the three workloads: the ShardedRtHost they all
// run on (library defaults, nanosecond clock, two kNormal kSleep shards),
// window snapshots for CPU and allocation accounting, and the per-layer and
// lateness reports read from the host after Stop().

#ifndef STBENCH_SRC_HARNESS_H_
#define STBENCH_SRC_HARNESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/rt/sharded_rt_host.h"
#include "stbench/src/common.h"
#include "stbench/src/trace.h"

namespace stbench {

inline constexpr size_t kShards = 2;
// Span records kept per thread (per-kind totals continue past it).
inline constexpr size_t kTraceCapacity = 1 << 15;
// Trace buffer ids: shards 0..kShards-1, then the generator (main) thread.
inline constexpr uint32_t kGeneratorTid = kShards;
// An untraced window is cut into this many equal slices; each end-to-end
// figure is the lower quartile of its per-slice values (SliceFigure). On a
// shared VM, hypervisor steal comes in bursts of a few seconds and only
// ever inflates a slice's CPU and latency figures, so the lower quartile
// reads the undisturbed system even when a burst covers half the window,
// while a change that affects the whole run still moves it.
inline constexpr size_t kSlices = 10;
inline constexpr size_t kMaxCuts = kSlices + 1;

// The host configuration every workload shares: library defaults apart
// from the shard count and the nanosecond measurement clock.
softtimer::ShardedRtHost::Config BaseHostConfig();

// Everything a shard thread registers once in shard_setup, so the main
// thread can read per-shard CPU clocks and the trace buffers afterwards.
class ShardRegistry {
 public:
  ShardRegistry();
  // Called at the end of shard_setup on the shard's own thread.
  void RegisterCurrentThread(size_t shard);
  // Blocks until every shard registered.
  void WaitAllRegistered() const;
  uint64_t ShardCpuNs(size_t shard) const;
  std::vector<const TraceBuffer*> all_traces() const;
  // Makes the calling (generator) thread trace into its own buffer.
  void RegisterGeneratorThread();

  // Windowed lateness. The host's per-shard lateness histograms count from
  // host start and may only be read on the shard's own thread while it
  // runs, so at each cut of the window main asks for a copy and each shard
  // takes it from its shard_tick hook (OnShardTick). LatenessBetween() is
  // then the merged difference of two cuts. A cut a shard never took (it
  // stopped first) is taken from the quiesced host by FinishCuts().
  void RequestCut();
  void OnShardTick(size_t shard, const softtimer::ShardedRtHost& host);
  void FinishCuts(const softtimer::ShardedRtHost& host);
  softtimer::LatencyHistogram LatenessBetween(size_t from_cut,
                                              size_t to_cut) const;
  size_t cuts() const { return cuts_requested_.load(std::memory_order_relaxed); }
  // Slice of the window now running (its index), or -1 outside the window;
  // shards file the samples they record themselves under it. ordering:
  // relaxed - a sample taken a moment across a cut lands in the
  // neighbouring slice.
  int CurrentSlice() const {
    return current_slice_.load(std::memory_order_relaxed);
  }
  void SetCurrentSlice(int slice) {
    current_slice_.store(slice, std::memory_order_relaxed);
  }

 private:
  std::array<clockid_t, kShards> cpu_clocks_{};
  std::atomic<size_t> registered_{0};
  std::vector<std::unique_ptr<TraceBuffer>> traces_;
  std::atomic<size_t> cuts_requested_{0};
  std::atomic<int> current_slice_{-1};
  std::array<size_t, kShards> cuts_taken_{};  // shard-thread only
  std::array<std::array<softtimer::LatencyHistogram, kShards>, kMaxCuts> cut_;
};

// Builds a fresh World(args...) `repeats` times (once in a smoke run) and
// times only its StartHost(): host construction, Start() and every shard's
// shard_setup. The World's constructor, untimed, builds the benchmark's own
// state; seeded inputs are made once by the caller and passed in. Reports
// the median as setup_s and returns the last World, running.
template <typename World, typename... Args>
std::unique_ptr<World> SetUpWorld(Report& r, const Options& opts, int repeats,
                                  const Args&... args) {
  std::vector<double> setup;
  std::unique_ptr<World> w;
  for (int i = 0; i < (opts.smoke ? 1 : repeats); ++i) {
    w.reset();
    w = std::make_unique<World>(args...);
    uint64_t t = MonoNs();
    w->StartHost();
    setup.push_back(static_cast<double>(MonoNs() - t) / 1e9);
  }
  r.E2e("setup_s", Median(setup), "s");
  std::string each = "set-ups (s):";
  for (double s : setup) {
    each += " " + std::to_string(s);
  }
  r.notes.push_back(each);
  return w;
}

// The workload's op ledger, read at every snapshot: ops offered so far and
// ops completed so far (monotonic; safe to read while the shards run).
struct OpCounts {
  uint64_t offered = 0;
  uint64_t completed = 0;
};

struct Snapshot {
  uint64_t mono_ns = 0;
  uint64_t process_cpu_ns = 0;
  uint64_t generator_cpu_ns = 0;  // the calling (main/generator) thread
  uint64_t allocs = 0;
  std::array<uint64_t, kShards> shard_cpu_ns{};
  // Torn-but-monotonic loop counters (ShardedRtHost allows running reads).
  std::array<softtimer::ShardedRtHost::ShardLoopStats, kShards> loops{};
  OpCounts ops;
};
Snapshot TakeSnapshot(const ShardRegistry& reg,
                      const softtimer::ShardedRtHost& host,
                      const std::function<OpCounts()>& ops);

// CPU the system spent in [a, b): process CPU minus the generator thread's.
inline double SystemCpuNs(const Snapshot& a, const Snapshot& b) {
  double proc = static_cast<double>(b.process_cpu_ns - a.process_cpu_ns);
  double gen = static_cast<double>(b.generator_cpu_ns - a.generator_cpu_ns);
  return proc - gen;
}

// The figure a window reports from its per-slice values.
inline double SliceFigure(const std::vector<double>& per_slice) {
  return LowQuartile(per_slice);
}

// The measured window. Untraced it is cut into kSlices equal slices. With
// --trace 1 it has two halves, the first untraced and the second traced, so
// one run yields both the per-layer numbers and the tracing overhead; the
// untraced half is then the one slice.
struct Window {
  std::vector<Snapshot> cuts;  // slice i spans cuts[i] .. cuts[i + 1]
  bool traced = false;
  size_t slices() const { return traced ? 1 : cuts.size() - 1; }
  const Snapshot& start() const { return cuts.front(); }
  const Snapshot& end() const { return cuts.back(); }
  // End of the untraced part (== end() when untraced).
  const Snapshot& mid() const { return traced ? cuts[1] : cuts.back(); }
};


// Runs warm-up then the window on the calling (generator) thread, flipping
// g_trace_on at the window's midpoint when opts.trace. `gen(t0, elapsed)`
// does whatever generator work is due `elapsed` ns after t0 (the MonoNs
// start of the warm-up) and returns the elapsed time of its next work
// (UINT64_MAX when it has none left). The window opens warmup_seconds in.
template <typename Gen>
Window RunWindow(ShardRegistry& reg, const softtimer::ShardedRtHost& host,
                 const std::function<OpCounts()>& ops, const Options& opts,
                 Gen&& gen) {
  Window w;
  w.traced = opts.trace;
  size_t slices = opts.trace ? 2 : kSlices;
  uint64_t t0 = MonoNs();
  uint64_t open = static_cast<uint64_t>(opts.warmup_seconds * 1e9);
  uint64_t len = static_cast<uint64_t>(opts.seconds * 1e9);
  auto cut_at = [&](size_t k) { return open + len * k / slices; };
  for (;;) {
    uint64_t elapsed = MonoNs() - t0;
    size_t k = w.cuts.size();
    if (k <= slices && elapsed >= cut_at(k)) {
      w.cuts.push_back(TakeSnapshot(reg, host, ops));
      reg.RequestCut();
      reg.SetCurrentSlice(k < slices ? static_cast<int>(k) : -1);
      if (opts.trace && k == 1) {
        g_trace_on.store(true, std::memory_order_relaxed);
      }
      if (k == slices) {
        break;
      }
      continue;
    }
    uint64_t next = gen(t0, elapsed);
    WaitUntil(t0 + std::min({next, cut_at(k), elapsed + kNsPerMs}));
  }
  g_trace_on.store(false, std::memory_order_relaxed);
  return w;
}

// Mean duration of one span kind over every thread's buffer (0 if none).
double MeanSpanNs(const ShardRegistry& reg, SpanKind kind);

// Host-derived reports, read after Stop().
void ReportLateness(Report& r, ShardRegistry& reg,
                    const softtimer::ShardedRtHost& host, const Window& w);
void ReportRtLayer(Report& r, const ShardRegistry& reg, const Window& w);
void ReportCoreLayer(Report& r, softtimer::ShardedRtHost& host,
                     const ShardRegistry& reg, uint64_t ring_rejects);
// Window throughput figures: delivered_ratio, the per-op CPU of both phases
// (end-to-end cpu_us_per_op from the untraced phase), allocs per op, the
// trace overhead and each layer's self time from the traced phase.
void ReportWindow(Report& r, const ShardRegistry& reg, const Window& w);

}  // namespace stbench

#endif  // STBENCH_SRC_HARNESS_H_
