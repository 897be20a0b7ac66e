#include "stbench/src/harness.h"

#include <algorithm>
#include <string>
#include <thread>

#include "bench/alloc_probe.h"
#include "stbench/src/checks.h"

namespace stbench {

using softtimer::ShardedRtHost;

ShardedRtHost::Config BaseHostConfig() {
  ShardedRtHost::Config c;
  c.num_shards = kShards;
  c.measure_hz = kMeasureHz;
  return c;
}

ShardRegistry::ShardRegistry() {
  for (uint32_t tid = 0; tid <= kGeneratorTid; ++tid) {
    traces_.push_back(std::make_unique<TraceBuffer>(tid, kTraceCapacity));
  }
}

void ShardRegistry::RegisterCurrentThread(size_t shard) {
  cpu_clocks_[shard] = CurrentThreadCpuClock();
  t_trace = traces_[shard].get();
  // ordering: release publishes the clock id (and everything the shard's
  // setup built) to WaitAllRegistered's acquire load.
  registered_.fetch_add(1, std::memory_order_release);
}

void ShardRegistry::WaitAllRegistered() const {
  // ordering: acquire pairs with RegisterCurrentThread's release.
  // Yields rather than sleeps, so set-up time is not rounded up to a sleep.
  while (registered_.load(std::memory_order_acquire) < kShards) {
    std::this_thread::yield();
  }
}

uint64_t ShardRegistry::ShardCpuNs(size_t shard) const {
  return ClockNs(cpu_clocks_[shard]);
}

std::vector<const TraceBuffer*> ShardRegistry::all_traces() const {
  std::vector<const TraceBuffer*> out;
  for (const auto& t : traces_) {
    out.push_back(t.get());
  }
  return out;
}

void ShardRegistry::RegisterGeneratorThread() {
  t_trace = traces_[kGeneratorTid].get();
}

void ShardRegistry::RequestCut() {
  // ordering: each shard copies its own histogram; nothing is published to
  // main through this counter.
  cuts_requested_.fetch_add(1, std::memory_order_relaxed);
}

void ShardRegistry::OnShardTick(size_t shard, const ShardedRtHost& host) {
  // ordering: see RequestCut.
  size_t requested = cuts_requested_.load(std::memory_order_relaxed);
  while (cuts_taken_[shard] < requested && cuts_taken_[shard] < kMaxCuts) {
    cut_[cuts_taken_[shard]++][shard] = host.shard_lateness_raw(shard);
  }
}

void ShardRegistry::FinishCuts(const ShardedRtHost& host) {
  for (size_t shard = 0; shard < kShards; ++shard) {
    OnShardTick(shard, host);
  }
}

softtimer::LatencyHistogram ShardRegistry::LatenessBetween(
    size_t from_cut, size_t to_cut) const {
  // Bucket-wise difference, re-recorded at each bucket's midpoint (the
  // exact extremes of a slice are not recoverable from two histograms).
  using softtimer::LatencyHistogram;
  LatencyHistogram out;
  for (size_t i = 0; i < kShards; ++i) {
    std::vector<uint64_t> base(LatencyHistogram::kNumBuckets, 0);
    cut_[from_cut][i].ForEachNonZero([&](uint64_t lower, uint64_t, uint64_t c) {
      base[LatencyHistogram::BucketIndex(lower)] = c;
    });
    cut_[to_cut][i].ForEachNonZero(
        [&](uint64_t lower, uint64_t upper, uint64_t c) {
          uint64_t n = c - base[LatencyHistogram::BucketIndex(lower)];
          for (uint64_t k = 0; k < n; ++k) {
            out.Record(lower + (upper - lower) / 2);
          }
        });
  }
  return out;
}

Snapshot TakeSnapshot(const ShardRegistry& reg, const ShardedRtHost& host,
                      const std::function<OpCounts()>& ops) {
  Snapshot s;
  s.mono_ns = MonoNs();
  s.process_cpu_ns = ProcessCpuNs();
  s.generator_cpu_ns = ThreadCpuNs();
  s.allocs = softtimer::AllocProbeAllocCount();
  for (size_t i = 0; i < kShards; ++i) {
    s.shard_cpu_ns[i] = reg.ShardCpuNs(i);
    s.loops[i] = host.shard_loop_stats(i);
  }
  s.ops = ops();
  return s;
}

namespace {

SpanTotals SumTotals(const ShardRegistry& reg, SpanKind kind) {
  SpanTotals sum;
  for (const TraceBuffer* b : reg.all_traces()) {
    const SpanTotals& t = b->totals(kind);
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

}  // namespace

double MeanSpanNs(const ShardRegistry& reg, SpanKind kind) {
  SpanTotals t = SumTotals(reg, kind);
  return Ratio(static_cast<double>(t.total_ns), t.count);
}

void ReportLateness(Report& r, ShardRegistry& reg, const ShardedRtHost& host,
                    const Window& w) {
  reg.FinishCuts(host);
  std::vector<double> p50, p99;
  for (size_t k = 0; k < w.slices(); ++k) {
    softtimer::LatencyHistogram h = reg.LatenessBetween(k, k + 1);
    p50.push_back(InterpPercentile(h, 50.0) / kNsPerUs);
    p99.push_back(InterpPercentile(h, 99.0) / kNsPerUs);
  }
  r.E2e("lateness_p50_us", SliceFigure(p50), "us");
  r.E2e("lateness_p99_us", SliceFigure(p99), "us");
  softtimer::LatencyHistogram merged =
      reg.LatenessBetween(0, w.cuts.size() - 1);
  uint64_t x = kMeasureHz / BaseHostConfig().interrupt_clock_hz;
  uint64_t misses = BoundMisses(merged, x);
  r.Layer("core.bound_misses", static_cast<double>(misses), "count");
  r.Layer("core.bound_checked", static_cast<double>(merged.count()), "count");
  r.notes.push_back(
      "lateness: " + std::to_string(merged.count()) + " dispatches, p50 " +
      std::to_string(InterpPercentile(merged, 50.0) / kNsPerUs) + " us, p99 " +
      std::to_string(InterpPercentile(merged, 99.0) / kNsPerUs) +
      " us, bound_miss_rate " +
      std::to_string(Ratio(static_cast<double>(misses), merged.count())) +
      " (" + std::to_string(misses) + " of " + std::to_string(merged.count()) +
      " outside T < actual < T + X + 1, X = " + std::to_string(x) +
      " ticks)");
  std::string early = CheckNoEarlyFires(merged);
  if (!early.empty()) {
    r.Fail(early);
  }
}

void ReportRtLayer(Report& r, const ShardRegistry& reg, const Window& w) {
  const Snapshot& start = w.start();
  const Snapshot& end = w.end();
  double wall = static_cast<double>(end.mono_ns - start.mono_ns);
  uint64_t ops = end.ops.completed - start.ops.completed;
  double cpu_total = 0;
  uint64_t iters = 0, sleeps = 0, wakeups = 0, backups = 0, polls = 0;
  for (size_t i = 0; i < kShards; ++i) {
    double cpu = static_cast<double>(end.shard_cpu_ns[i] -
                                     start.shard_cpu_ns[i]);
    cpu_total += cpu;
    r.Layer("rt.shard" + std::to_string(i) + "_cpu_us", cpu / kNsPerUs, "us");
    const ShardedRtHost::ShardLoopStats& a = start.loops[i];
    const ShardedRtHost::ShardLoopStats& b = end.loops[i];
    iters += b.polls - a.polls;
    sleeps += b.sleeps - a.sleeps;
    wakeups += b.wakeups - a.wakeups;
    backups += b.backup_checks - a.backup_checks;
    polls += b.queue_polls - a.queue_polls;
  }
  r.Layer("rt.cpu_us", cpu_total / kNsPerUs, "us");
  r.Layer("rt.busy_frac", cpu_total / (wall * kShards), "ratio");
  r.Layer("rt.loop_iters", static_cast<double>(iters), "count");
  r.Layer("rt.sleeps_per_op", Ratio(static_cast<double>(sleeps), ops), "count");
  r.Layer("rt.wakeups_per_op", Ratio(static_cast<double>(wakeups), ops),
          "count");
  r.Layer("rt.backup_checks", static_cast<double>(backups), "count");
  r.Layer("rt.shard_tick_ns_mean", MeanSpanNs(reg, SpanKind::kRtShardTick),
          "ns/call");
  r.Layer("net.poll_calls", static_cast<double>(polls), "count");
}

void ReportCoreLayer(Report& r, ShardedRtHost& host, const ShardRegistry& reg,
                     uint64_t ring_rejects) {
  auto agg = host.runtime().AggregateStats();
  uint64_t xcore = 0;
  for (size_t i = 0; i < kShards; ++i) {
    auto s = host.runtime().shard_stats(i);
    xcore += s.remote_scheduled + s.remote_cancelled + s.remote_cancel_misses +
             s.remote_rescheduled + s.remote_reschedule_misses;
  }
  size_t backup = static_cast<size_t>(softtimer::TriggerSource::kBackupIntr);
  r.Layer("core.dispatches", static_cast<double>(agg.dispatches), "count");
  r.Layer("core.backup_dispatch_frac",
          Ratio(static_cast<double>(agg.dispatches_by_source[backup]),
                agg.dispatches),
          "ratio");
  r.Layer("core.xcore_commands", static_cast<double>(xcore), "count");
  r.Layer("core.ring_rejects", static_cast<double>(ring_rejects), "count");
  r.Layer("core.xcore_schedule_ns_mean",
          MeanSpanNs(reg, SpanKind::kCoreSchedule), "ns/call");
  r.Layer("core.xcore_cancel_ns_mean", MeanSpanNs(reg, SpanKind::kCoreCancel),
          "ns/call");
  r.Layer("core.xcore_reschedule_ns_mean",
          MeanSpanNs(reg, SpanKind::kCoreReschedule), "ns/call");
}

void ReportWindow(Report& r, const ShardRegistry& reg, const Window& w) {
  const Snapshot& start = w.start();
  const Snapshot& mid = w.mid();
  const Snapshot& end = w.end();
  uint64_t offered = end.ops.offered - start.ops.offered;
  uint64_t ops_untraced = mid.ops.completed - start.ops.completed;
  uint64_t ops_traced = end.ops.completed - mid.ops.completed;
  r.E2e("delivered_ratio",
        Ratio(static_cast<double>(end.ops.completed - start.ops.completed),
              offered),
        "ratio");
  std::vector<double> cpu;
  for (size_t k = 0; k < w.slices(); ++k) {
    const Snapshot& a = w.cuts[k];
    const Snapshot& b = w.cuts[k + 1];
    cpu.push_back(Ratio(SystemCpuNs(a, b), b.ops.completed - a.ops.completed) /
                  kNsPerUs);
  }
  double untraced = SliceFigure(cpu);
  r.E2e("cpu_us_per_op", untraced, "us/op");
  r.Layer("bench.allocs_per_op",
          Ratio(static_cast<double>(mid.allocs - start.allocs), ops_untraced),
          "count");
  double traced =
      w.traced ? Ratio(SystemCpuNs(mid, end), ops_traced) / kNsPerUs : 0;
  r.Layer("bench.untraced_cpu_us_per_op", untraced, "us/op");
  r.Layer("bench.traced_cpu_us_per_op", traced, "us/op");
  r.Layer("bench.trace_overhead_us_per_op", w.traced ? traced - untraced : 0,
          "us/op");
  // Self time per layer over the traced phase.
  const char* layers[] = {"net", "pacing", "tcp", "core", "rt"};
  for (const char* layer : layers) {
    uint64_t self = 0;
    for (size_t k = 0; k < kNumSpanKinds; ++k) {
      auto kind = static_cast<SpanKind>(k);
      if (std::string(SpanLayer(kind)) == layer) {
        self += SumTotals(reg, kind).self_ns;
      }
    }
    r.Layer(std::string(layer) + ".self_us_per_op",
            Ratio(static_cast<double>(self), ops_traced) / kNsPerUs, "us/op");
  }
  uint64_t recorded = 0, dropped = 0;
  for (const TraceBuffer* b : reg.all_traces()) {
    recorded += b->records().size();
    dropped += b->dropped();
  }
  r.Layer("bench.spans_recorded", static_cast<double>(recorded), "count");
  r.Layer("bench.spans_dropped", static_cast<double>(dropped), "count");
  r.notes.push_back("window: " + std::to_string(offered) + " ops offered, " +
                    std::to_string(ops_untraced + ops_traced) +
                    " completed; allocations " +
                    std::to_string(end.allocs - start.allocs));
}

}  // namespace stbench
