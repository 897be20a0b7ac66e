// Shard-scaling benchmark for ShardedSoftTimerRuntime: schedule+dispatch
// throughput at 1/2/4/8 shard threads, steady-state allocations per op, and
// cross-core scheduling costs. Writes machine-readable JSON (BENCH_shard.json
// schema) with --json=PATH.
//
// Methodology note (recorded in the JSON too): CI containers for this repo
// often pin the build to a single CPU, where wall-clock throughput cannot
// scale no matter how good the software is. Each worker therefore measures
// its own CPU time (CLOCK_THREAD_CPUTIME_ID) per operation - the honest
// scalability signal: software serialization (a shared lock, cache-line
// ping-pong) shows up as CPU ns/op growing with the thread count, while a
// contention-free design keeps it flat. The derived throughput for N threads
// is N / cpu_ns_per_op (what N real cores would sustain); wall metrics are
// reported alongside for machines with enough cores to check directly.
//
// Flags:
//   --json=PATH   write the JSON report to PATH
//   --scale=F     scale op counts by F (bench-smoke uses 0.01)

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "src/core/sharded_soft_timer_runtime.h"
#include "src/rt/monotonic_clock_source.h"
#include "src/rt/sharded_rt_host.h"
#include "src/stats/latency_histogram.h"

namespace softtimer {
namespace {

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Spin barrier: keeps the measurement phases aligned across workers without
// futex sleeps distorting per-thread CPU time at the boundaries.
class SpinBarrier {
 public:
  explicit SpinBarrier(size_t parties) : parties_(parties) {}
  void Arrive() {
    uint64_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.fetch_add(1, std::memory_order_release);
    } else {
      while (phase_.load(std::memory_order_acquire) == phase) {
        std::this_thread::yield();
      }
    }
  }

 private:
  const size_t parties_;
  std::atomic<size_t> arrived_{0};
  std::atomic<uint64_t> phase_{0};
};

struct ThreadResult {
  uint64_t ops = 0;
  uint64_t dispatched = 0;
  uint64_t cpu_ns = 0;
};

struct ScalePoint {
  size_t threads = 0;
  uint64_t total_ops = 0;
  double wall_s = 0;
  double wall_ns_per_op = 0;       // aggregate: wall / total ops
  double cpu_ns_per_op_mean = 0;   // mean over threads of cpu_ns / ops
  double cpu_ns_per_op_max = 0;    // slowest thread (the scaling limiter)
  double allocs_per_op = 0;        // global probe delta across the phase
  double derived_throughput_mops = 0;  // threads / cpu_ns_per_op_mean * 1e3
};

// Each worker owns one shard and runs local schedule -> trigger-check cycles.
// 1 GHz measurement clock so a 1-tick delay is due by the next check and
// every cycle dispatches (no idle clock-waiting in the measured loop).
ScalePoint RunLocalScaling(size_t threads, uint64_t ops_per_thread) {
  MonotonicClockSource clock(1'000'000'000);
  ShardedSoftTimerRuntime::Config cfg;
  cfg.num_shards = threads;
  cfg.facility.interrupt_clock_hz = 1'000;
  ShardedSoftTimerRuntime rt(&clock, cfg);

  SpinBarrier barrier(threads + 1);
  std::vector<ThreadResult> results(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadResult& r = results[t];
      auto* dispatched = &r.dispatched;
      auto handler = [dispatched](const SoftTimerFacility::FireInfo&) {
        ++*dispatched;
      };
      auto cycle = [&] {
        rt.ScheduleOnShard(t, 1, handler);
        rt.OnTriggerState(t, TriggerSource::kSyscall);
      };
      for (uint64_t i = 0; i < 2'000; ++i) {
        cycle();  // warmup: slab + wheel to high-water mark
      }
      barrier.Arrive();  // [1] warmup done everywhere
      barrier.Arrive();  // [2] alloc snapshot taken; measurement begins
      uint64_t cpu0 = ThreadCpuNs();
      for (uint64_t i = 0; i < ops_per_thread; ++i) {
        cycle();
      }
      // Flush stragglers (a cycle's event can slip to the next check).
      rt.OnTriggerState(t, TriggerSource::kSyscall);
      r.cpu_ns = ThreadCpuNs() - cpu0;
      r.ops = ops_per_thread;
      barrier.Arrive();  // [3] measurement done
    });
  }

  barrier.Arrive();  // [1]
  uint64_t alloc0 = AllocProbeAllocCount();
  auto wall0 = std::chrono::steady_clock::now();
  barrier.Arrive();  // [2]
  barrier.Arrive();  // [3]
  auto wall1 = std::chrono::steady_clock::now();
  uint64_t alloc1 = AllocProbeAllocCount();
  for (auto& w : workers) {
    w.join();
  }

  ScalePoint p;
  p.threads = threads;
  double cpu_sum = 0;
  for (const ThreadResult& r : results) {
    p.total_ops += r.ops;
    double per_op = static_cast<double>(r.cpu_ns) / static_cast<double>(r.ops);
    cpu_sum += per_op;
    p.cpu_ns_per_op_max = std::max(p.cpu_ns_per_op_max, per_op);
  }
  p.cpu_ns_per_op_mean = cpu_sum / static_cast<double>(threads);
  p.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  p.wall_ns_per_op = p.wall_s * 1e9 / static_cast<double>(p.total_ops);
  p.allocs_per_op = static_cast<double>(alloc1 - alloc0) /
                    static_cast<double>(p.total_ops);
  p.derived_throughput_mops =
      static_cast<double>(threads) / p.cpu_ns_per_op_mean * 1e3;
  return p;
}

struct CrossCoreResult {
  double push_ns_per_op = 0;       // producer-side SPSC push + publish
  double push_allocs_per_op = 0;
  double apply_ns_per_op = 0;      // owner-side drain + schedule + dispatch
  double latency_p50_us = 0;       // publish -> handler, across threads
  double latency_p99_us = 0;
};

// Producer-side cost, single-threaded: push a ring-full, drain as the owner,
// repeat. Separates the costs from scheduler noise.
void MeasureCrossCoreCosts(CrossCoreResult* out, double scale) {
  MonotonicClockSource clock(1'000'000'000);
  ShardedSoftTimerRuntime::Config cfg;
  cfg.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, cfg);
  auto token = rt.RegisterProducer();
  uint64_t fired = 0;
  auto* fired_p = &fired;
  auto handler = [fired_p](const SoftTimerFacility::FireInfo&) { ++*fired_p; };

  size_t rounds = std::max<size_t>(1, static_cast<size_t>(200 * scale));
  constexpr size_t kBatch = 1024;
  // Warmup round materializes slab, remote-id table, and ring slots.
  for (size_t i = 0; i < kBatch; ++i) {
    rt.ScheduleCrossCore(token, 0, 0, handler);
  }
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  rt.OnTriggerState(0, TriggerSource::kSyscall);

  uint64_t push_ns = 0, apply_ns = 0, pushes = 0;
  uint64_t alloc0 = AllocProbeAllocCount();
  for (size_t r = 0; r < rounds; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kBatch; ++i) {
      rt.ScheduleCrossCore(token, 0, 0, handler);
    }
    auto t1 = std::chrono::steady_clock::now();
    // Two checks: the first drains and fires everything already past its
    // clamped deadline, the second catches the tail.
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    auto t2 = std::chrono::steady_clock::now();
    push_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    apply_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    pushes += kBatch;
  }
  uint64_t alloc1 = AllocProbeAllocCount();
  out->push_ns_per_op = static_cast<double>(push_ns) / static_cast<double>(pushes);
  out->apply_ns_per_op = static_cast<double>(apply_ns) / static_cast<double>(pushes);
  out->push_allocs_per_op =
      static_cast<double>(alloc1 - alloc0) / static_cast<double>(pushes);
}

// End-to-end publish -> dispatch latency with a busy-polling owner thread.
void MeasureCrossCoreLatency(CrossCoreResult* out, double scale) {
  MonotonicClockSource clock(1'000'000'000);
  ShardedSoftTimerRuntime::Config cfg;
  cfg.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, cfg);
  auto token = rt.RegisterProducer();

  std::atomic<bool> stop{false};
  std::thread owner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      rt.OnTriggerState(0, TriggerSource::kIdleLoop);
    }
  });

  // The handler stamps the dispatch tick itself (1 GHz clock: 1 tick = 1 ns)
  // and the producer SLEEPS between samples instead of spinning, so on hosts
  // with fewer cores than threads the owner still gets the CPU immediately
  // and the sample measures publish -> dispatch, not a scheduler quantum.
  size_t samples = std::max<size_t>(50, static_cast<size_t>(2'000 * scale));
  std::vector<double> latency_us;
  latency_us.reserve(samples);
  std::atomic<uint64_t> fired_at{0};
  for (size_t i = 0; i < samples; ++i) {
    fired_at.store(0, std::memory_order_relaxed);
    auto* slot = &fired_at;
    uint64_t t0 = clock.NowTicks();
    rt.ScheduleCrossCore(
        token, 0, 0, [slot](const SoftTimerFacility::FireInfo& info) {
          slot->store(info.fired_tick, std::memory_order_release);
        });
    auto wait_deadline = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(100);
    while (fired_at.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < wait_deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    uint64_t fired = fired_at.load(std::memory_order_acquire);
    if (fired != 0) {
      latency_us.push_back(static_cast<double>(fired - t0) / 1e3);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  owner.join();

  std::sort(latency_us.begin(), latency_us.end());
  if (!latency_us.empty()) {
    out->latency_p50_us = latency_us[latency_us.size() / 2];
    out->latency_p99_us = latency_us[latency_us.size() * 99 / 100];
  }
}

// ---------------------------------------------------------------------------
// Isolated-shard latency-SLO phase (DESIGN.md section 14).
//
// A 2-shard ShardedRtHost: shard 0 is isolated (it spins: compensated
// software backup, 1 us lateness SLO at the 1 GHz measure clock) under a
// 100-tick self-re-arm chain; shard 1 sleeps under a 400 us chain,
// demonstrating - simultaneously - that its dispatches piggyback on trigger
// states (kIdleLoop source) rather than costing backup interrupts.
//
// Self-checking gates (the bench exits nonzero if they fail after retries):
//   - clean p99.9 dispatch lateness on the isolated shard < the SLO budget
//     (1000 ticks = 1 us), with a minimum clean sample count;
//   - zero backup_true_late (late fires with a detected hypervisor steal
//     are classified, reported, and excluded);
//   - backup fires actually happened;
//   - the sibling sleeping shard dispatched via trigger piggybacking.
// "Clean" excludes dispatches adjacent to a detected preemption gap - the
// same shared-CI-host honesty rule as the CPU-time-per-op methodology above;
// raw percentiles are reported next to clean in the JSON.
// ---------------------------------------------------------------------------

struct ChainCtx {
  ShardedSoftTimerRuntime* rt = nullptr;
  size_t shard = 0;
  uint64_t delta = 0;
  uint64_t fires = 0;
};

void ChainFire(ChainCtx* c) {
  c->rt->ScheduleOnShard(c->shard, c->delta,
                         [c](const SoftTimerFacility::FireInfo&) {
                           ++c->fires;
                           ChainFire(c);
                         });
}

struct IsolatedSloResult {
  // Isolated shard 0.
  uint64_t slo_budget_ticks = 0;
  uint64_t clean_samples = 0;
  uint64_t clean_p50 = 0, clean_p99 = 0, clean_p999 = 0, clean_max = 0;
  uint64_t raw_samples = 0;
  uint64_t raw_p50 = 0, raw_p99 = 0, raw_p999 = 0, raw_max = 0;
  ShardedRtHost::ShardLoopStats loop;
  ShardedRtHost::IsolatedShardStats iso;
  // Sibling sleeping shard 1.
  uint64_t normal_dispatches = 0;
  uint64_t normal_piggyback_dispatches = 0;  // TriggerSource::kIdleLoop
  uint64_t normal_backup_dispatches = 0;     // TriggerSource::kBackupIntr
  // Gate outcomes.
  bool pass_clean_p999 = false;
  bool pass_min_samples = false;
  bool pass_zero_true_late = false;
  bool pass_backup_exercised = false;
  bool pass_normal_piggyback = false;
  bool passed = false;
  int attempts = 0;
  // Clean-histogram snapshot for the JSON bucket dump.
  LatencyHistogram clean_hist;
};

IsolatedSloResult RunIsolatedSloOnce(double scale) {
  constexpr uint64_t kSloTicks = 1'000;       // 1 us at the 1 GHz clock
  constexpr uint64_t kMinCleanSamples = 1'000;
  const auto run_ms =
      std::chrono::milliseconds(std::max<int64_t>(40, int64_t(600 * scale)));

  IsolatedSloResult r;
  r.slo_budget_ticks = kSloTicks;

  ChainCtx iso_chain, normal_chain;
  {
    ShardedRtHost::Config hc;
    hc.num_shards = 2;
    hc.measure_hz = 1'000'000'000;
    hc.interrupt_clock_hz = 1'000;  // 1 ms backup period
    hc.shard_profiles.resize(2);
    hc.shard_profiles[0].isolated = true;
    hc.shard_profiles[0].slo_lateness_ticks = kSloTicks;
    hc.shard_setup = [&](size_t shard) {
      ChainFire(shard == 0 ? &iso_chain : &normal_chain);
    };
    ShardedRtHost host(hc);
    iso_chain = {&host.runtime(), 0, 100, 0};       // 100 ns re-arm chain
    normal_chain = {&host.runtime(), 1, 400'000, 0};  // 400 us chain
    host.Start();
    std::this_thread::sleep_for(run_ms);
    host.Stop();

    r.loop = host.shard_loop_stats(0);
    r.iso = host.isolated_shard_stats(0);
    const LatencyHistogram& clean = host.shard_lateness_clean(0);
    const LatencyHistogram& raw = host.shard_lateness_raw(0);
    r.clean_samples = clean.count();
    r.clean_p50 = clean.Percentile(50.0);
    r.clean_p99 = clean.Percentile(99.0);
    r.clean_p999 = clean.Percentile(99.9);
    r.clean_max = clean.max();
    r.raw_samples = raw.count();
    r.raw_p50 = raw.Percentile(50.0);
    r.raw_p99 = raw.Percentile(99.0);
    r.raw_p999 = raw.Percentile(99.9);
    r.raw_max = raw.max();
    r.clean_hist = clean;
    const SoftTimerFacility::Stats& fs = host.runtime().shard_facility(1).stats();
    r.normal_dispatches = fs.dispatches;
    r.normal_piggyback_dispatches =
        fs.dispatches_by_source[static_cast<size_t>(TriggerSource::kIdleLoop)];
    r.normal_backup_dispatches =
        fs.dispatches_by_source[static_cast<size_t>(TriggerSource::kBackupIntr)];
  }

  r.pass_clean_p999 = r.clean_p999 < kSloTicks;
  r.pass_min_samples = r.clean_samples >= kMinCleanSamples;
  r.pass_zero_true_late = r.iso.backup_true_late == 0;
  r.pass_backup_exercised = r.iso.backup_fires > 0;
  r.pass_normal_piggyback = r.normal_piggyback_dispatches > 0;
  r.passed = r.pass_clean_p999 && r.pass_min_samples &&
             r.pass_zero_true_late && r.pass_backup_exercised &&
             r.pass_normal_piggyback;
  return r;
}

IsolatedSloResult RunIsolatedSlo(double scale) {
  // A hypervisor steal storm on a shared CI host can defeat any single run
  // (it also taints the calibration); retry a bounded number of times before
  // declaring failure.
  constexpr int kMaxAttempts = 3;
  IsolatedSloResult r;
  for (int attempt = 1; attempt <= kMaxAttempts; ++attempt) {
    r = RunIsolatedSloOnce(scale);
    r.attempts = attempt;
    if (r.passed) {
      break;
    }
    std::fprintf(stderr, "isolated-slo attempt %d failed its gates%s\n",
                 attempt, attempt < kMaxAttempts ? ", retrying" : "");
  }
  return r;
}

int Run(const std::string& json_path, double scale) {
  const size_t kThreadCounts[] = {1, 2, 4, 8};
  uint64_t ops = static_cast<uint64_t>(1'000'000 * scale);
  ops = std::max<uint64_t>(ops, 10'000);

  std::vector<ScalePoint> points;
  for (size_t threads : kThreadCounts) {
    points.push_back(RunLocalScaling(threads, ops));
    const ScalePoint& p = points.back();
    std::printf(
        "threads=%zu  cpu %6.1f ns/op (max %6.1f)  wall %7.1f ns/op agg  "
        "allocs/op %.4f  derived %7.2f Mops/s\n",
        p.threads, p.cpu_ns_per_op_mean, p.cpu_ns_per_op_max, p.wall_ns_per_op,
        p.allocs_per_op, p.derived_throughput_mops);
  }

  CrossCoreResult cross;
  MeasureCrossCoreCosts(&cross, scale);
  MeasureCrossCoreLatency(&cross, scale);
  std::printf(
      "cross-core: push %5.1f ns/op (allocs/op %.4f)  apply %6.1f ns/op  "
      "latency p50 %.2f us  p99 %.2f us\n",
      cross.push_ns_per_op, cross.push_allocs_per_op, cross.apply_ns_per_op,
      cross.latency_p50_us, cross.latency_p99_us);

  IsolatedSloResult slo = RunIsolatedSlo(scale);
  std::printf(
      "isolated-slo: clean lateness p50/p99/p99.9/max %llu/%llu/%llu/%llu "
      "ticks (%llu samples)  raw p99.9 %llu (%llu)\n",
      static_cast<unsigned long long>(slo.clean_p50),
      static_cast<unsigned long long>(slo.clean_p99),
      static_cast<unsigned long long>(slo.clean_p999),
      static_cast<unsigned long long>(slo.clean_max),
      static_cast<unsigned long long>(slo.clean_samples),
      static_cast<unsigned long long>(slo.raw_p999),
      static_cast<unsigned long long>(slo.raw_samples));
  std::printf(
      "  steals %llu (%llu ticks, max gap %llu)  threshold %llu  "
      "compensation %llu  calibrated gap %llu\n",
      static_cast<unsigned long long>(slo.iso.steal_events),
      static_cast<unsigned long long>(slo.iso.stolen_ticks),
      static_cast<unsigned long long>(slo.iso.max_gap_ticks),
      static_cast<unsigned long long>(slo.iso.steal_threshold_ticks),
      static_cast<unsigned long long>(slo.iso.compensation_ticks),
      static_cast<unsigned long long>(slo.iso.calibrated_gap_ticks));
  std::printf(
      "  backup compensated: fires %llu on_time %llu true_late %llu "
      "steal_late %llu\n",
      static_cast<unsigned long long>(slo.iso.backup_fires),
      static_cast<unsigned long long>(slo.iso.backup_on_time),
      static_cast<unsigned long long>(slo.iso.backup_true_late),
      static_cast<unsigned long long>(slo.iso.backup_steal_late));
  std::printf(
      "  normal sibling: dispatches %llu, piggybacked on trigger states %llu, "
      "via backup %llu\n",
      static_cast<unsigned long long>(slo.normal_dispatches),
      static_cast<unsigned long long>(slo.normal_piggyback_dispatches),
      static_cast<unsigned long long>(slo.normal_backup_dispatches));
  std::printf("  gates: %s (attempts %d)\n",
              slo.passed ? "PASS" : "FAIL", slo.attempts);

  const ScalePoint& base = points[0];
  if (json_path.empty()) {
    return slo.passed ? 0 : 1;
  }
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"softtimer-shard-v1\",\n");
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(
      f,
      "  \"note\": \"per-worker CPU time (CLOCK_THREAD_CPUTIME_ID) is the "
      "scalability signal: contention-free shards keep cpu_ns_per_op flat as "
      "threads grow, software serialization would inflate it. "
      "derived_throughput_mops = threads / cpu_ns_per_op_mean assumes one "
      "core per thread; wall metrics depend on host_cores. allocs_per_op is "
      "the global operator-new probe delta over the measured phase.\",\n");
  std::fprintf(f, "  \"local_schedule_dispatch\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    std::fprintf(
        f,
        "    {\"threads\": %zu, \"ops\": %llu, \"cpu_ns_per_op_mean\": %.2f, "
        "\"cpu_ns_per_op_max\": %.2f, \"wall_ns_per_op_agg\": %.2f, "
        "\"allocs_per_op\": %.4f, \"derived_throughput_mops\": %.2f, "
        "\"scaling_efficiency_vs_1\": %.3f, \"derived_speedup_vs_1\": %.2f}%s\n",
        p.threads, static_cast<unsigned long long>(p.total_ops),
        p.cpu_ns_per_op_mean, p.cpu_ns_per_op_max, p.wall_ns_per_op,
        p.allocs_per_op, p.derived_throughput_mops,
        base.cpu_ns_per_op_mean / p.cpu_ns_per_op_mean,
        p.derived_throughput_mops / base.derived_throughput_mops,
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cross_core\": {\n"
               "    \"push_ns_per_op\": %.2f,\n"
               "    \"push_allocs_per_op\": %.4f,\n"
               "    \"apply_ns_per_op\": %.2f,\n"
               "    \"latency_p50_us\": %.2f,\n"
               "    \"latency_p99_us\": %.2f\n"
               "  },\n",
               cross.push_ns_per_op, cross.push_allocs_per_op,
               cross.apply_ns_per_op, cross.latency_p50_us,
               cross.latency_p99_us);
  std::fprintf(
      f,
      "  \"isolated_slo\": {\n"
      "    \"note\": \"2-shard ShardedRtHost at 1 GHz: shard 0 isolated "
      "(spinning trigger loop, compensated software backup, 100-tick re-arm "
      "chain), shard 1 sleeping (400 us chain). 'clean' excludes dispatches "
      "adjacent to a detected hypervisor-steal gap (> steal_threshold_ticks "
      "between consecutive clock reads) - same honesty rule as the CPU-time "
      "methodology; 'raw' keeps everything. Percentiles are bucket upper "
      "bounds (LatencyHistogram, <=6%% relative error), max exact.\",\n");
  std::fprintf(
      f,
      "    \"slo_budget_ticks\": %llu,\n"
      "    \"clean\": {\"samples\": %llu, \"p50_ticks\": %llu, "
      "\"p99_ticks\": %llu, \"p999_ticks\": %llu, \"max_ticks\": %llu},\n"
      "    \"raw\": {\"samples\": %llu, \"p50_ticks\": %llu, "
      "\"p99_ticks\": %llu, \"p999_ticks\": %llu, \"max_ticks\": %llu},\n",
      static_cast<unsigned long long>(slo.slo_budget_ticks),
      static_cast<unsigned long long>(slo.clean_samples),
      static_cast<unsigned long long>(slo.clean_p50),
      static_cast<unsigned long long>(slo.clean_p99),
      static_cast<unsigned long long>(slo.clean_p999),
      static_cast<unsigned long long>(slo.clean_max),
      static_cast<unsigned long long>(slo.raw_samples),
      static_cast<unsigned long long>(slo.raw_p50),
      static_cast<unsigned long long>(slo.raw_p99),
      static_cast<unsigned long long>(slo.raw_p999),
      static_cast<unsigned long long>(slo.raw_max));
  std::fprintf(
      f,
      "    \"spin\": {\"checks\": %llu, \"calibrated_gap_ticks\": %llu, "
      "\"steal_threshold_ticks\": %llu, \"steal_events\": %llu, "
      "\"stolen_ticks\": %llu, \"max_gap_ticks\": %llu, "
      "\"steal_suppressed_dispatches\": %llu, \"slo_violations\": %llu},\n",
      static_cast<unsigned long long>(slo.loop.polls),
      static_cast<unsigned long long>(slo.iso.calibrated_gap_ticks),
      static_cast<unsigned long long>(slo.iso.steal_threshold_ticks),
      static_cast<unsigned long long>(slo.iso.steal_events),
      static_cast<unsigned long long>(slo.iso.stolen_ticks),
      static_cast<unsigned long long>(slo.iso.max_gap_ticks),
      static_cast<unsigned long long>(slo.iso.steal_suppressed_dispatches),
      static_cast<unsigned long long>(slo.iso.slo_violations));
  std::fprintf(
      f,
      "    \"backup_compensated\": {\"compensation_ticks\": %llu, "
      "\"fires\": %llu, \"on_time\": %llu, \"true_late\": %llu, "
      "\"steal_late\": %llu},\n"
      "    \"normal_sibling\": {\"dispatches\": %llu, "
      "\"trigger_piggyback_dispatches\": %llu, \"backup_dispatches\": "
      "%llu},\n",
      static_cast<unsigned long long>(slo.iso.compensation_ticks),
      static_cast<unsigned long long>(slo.iso.backup_fires),
      static_cast<unsigned long long>(slo.iso.backup_on_time),
      static_cast<unsigned long long>(slo.iso.backup_true_late),
      static_cast<unsigned long long>(slo.iso.backup_steal_late),
      static_cast<unsigned long long>(slo.normal_dispatches),
      static_cast<unsigned long long>(slo.normal_piggyback_dispatches),
      static_cast<unsigned long long>(slo.normal_backup_dispatches));
  std::fprintf(f, "    \"clean_histogram\": [");
  {
    bool first = true;
    slo.clean_hist.ForEachNonZero(
        [&](uint64_t lo, uint64_t hi, uint64_t n) {
          std::fprintf(f, "%s\n      {\"lo\": %llu, \"hi\": %llu, \"n\": %llu}",
                       first ? "" : ",", static_cast<unsigned long long>(lo),
                       static_cast<unsigned long long>(hi),
                       static_cast<unsigned long long>(n));
          first = false;
        });
  }
  std::fprintf(f, "\n    ],\n");
  std::fprintf(f, "    \"attempts\": %d,\n    \"passed\": %s\n  }\n}\n",
               slo.attempts, slo.passed ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return slo.passed ? 0 : 1;
}

}  // namespace
}  // namespace softtimer

int main(int argc, char** argv) {
  std::string json_path;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::strtod(argv[i] + 8, nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 1;
    }
  }
  return softtimer::Run(json_path, scale <= 0 ? 1.0 : scale);
}
