// Microbenchmarks of the SoftTimerFacility hot paths (google-benchmark):
// the per-trigger-state check with nothing due (the cost the paper argues is
// negligible - "reading the clock and a comparison"), dispatching due
// events, and schedule/cancel round-trips. Every benchmark also reports
// "allocs/op" from the linked alloc probe (bench/alloc_probe.h): the
// schedule and nothing-due-check paths must stay at 0.
//
// Extra flags (consumed before google-benchmark sees the command line):
//
//   --hotpath-json=PATH   instead of running google-benchmark, measure the
//                         hot-path operations (schedule, cancel, nothing-due
//                         check, dispatch cycle, burst drains, and the
//                         update-heavy re-arm mix) on the facility's heap
//                         queue and write machine-readable JSON
//                         (ns/op and allocs/op) to PATH, alongside the
//                         facility-level numbers recorded from the tree
//                         before the zero-allocation rework.
//   --hotpath-iters=N     iterations per measured operation (default 200000).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/alloc_probe.h"
#include "src/core/clock_source.h"
#include "src/core/soft_timer_facility.h"
#include "src/sim/simulator.h"

namespace softtimer {
namespace {

struct Env {
  explicit Env(uint32_t max_dispatches_per_clock_read = 0)
      : clock(&sim, 1'000'000),
        facility(&clock, MakeConfig(max_dispatches_per_clock_read)) {}
  static SoftTimerFacility::Config MakeConfig(uint32_t max_reads) {
    SoftTimerFacility::Config config;
    if (max_reads > 0) {
      config.max_dispatches_per_clock_read = max_reads;
    }
    return config;
  }
  Simulator sim;
  SimClockSource clock;
  SoftTimerFacility facility;
};

// Attaches the alloc probe's delta as an "allocs/op" counter.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(AllocProbeAllocCount()) {}
  ~AllocCounter() {
    state_.counters["allocs/op"] = benchmark::Counter(
        static_cast<double>(AllocProbeAllocCount() - start_) /
        static_cast<double>(state_.iterations()));
  }

 private:
  benchmark::State& state_;
  uint64_t start_;
};

void BM_TriggerCheckEmpty(benchmark::State& state) {
  Env env;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
  }
}
BENCHMARK(BM_TriggerCheckEmpty);

void BM_TriggerCheckEventPendingFarOut(benchmark::State& state) {
  Env env;
  env.facility.ScheduleSoftEvent(1'000'000'000, [](const SoftTimerFacility::FireInfo&) {});
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
  }
}
BENCHMARK(BM_TriggerCheckEventPendingFarOut);

void BM_ScheduleCancelRoundTrip(benchmark::State& state) {
  Env env;
  AllocCounter allocs(state);
  for (auto _ : state) {
    SoftEventId id =
        env.facility.ScheduleSoftEvent(1000, [](const SoftTimerFacility::FireInfo&) {});
    benchmark::DoNotOptimize(env.facility.CancelSoftEvent(id));
  }
}
BENCHMARK(BM_ScheduleCancelRoundTrip);

void BM_ScheduleDispatchCycle(benchmark::State& state) {
  Env env;
  uint64_t advance_ns = 2'000;  // 2 us of simulated time per cycle
  AllocCounter allocs(state);
  for (auto _ : state) {
    env.facility.ScheduleSoftEvent(1, [](const SoftTimerFacility::FireInfo&) {});
    env.sim.RunUntil(env.sim.now() + SimDuration::Nanos(static_cast<int64_t>(advance_ns)));
    benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
  }
}
BENCHMARK(BM_ScheduleDispatchCycle);

// --- --hotpath-json harness -------------------------------------------

struct OpSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;
};

struct HotpathSample {
  OpSample schedule;
  OpSample cancel;
  OpSample nothing_due_check;
  OpSample dispatch_cycle;
  // Batched drain with many events due at once, normalized per event:
  // one clock read per dispatched event (max_dispatches_per_clock_read=1)
  // vs the amortized default (one read per batch of 64).
  OpSample burst_dispatch_read_every_event;
  OpSample burst_dispatch_amortized_reads;
  // Re-arm churn over a pool of live events (the RTO-restart shape):
  // `update` is RescheduleSoftEvent (the queue moves the live node in place,
  // keeping its handler and id); `update_emulated` is the CancelSoftEvent+
  // ScheduleSoftEvent pair every pre-update caller had to write.
  OpSample update;
  OpSample update_emulated;
};

// Times `iters` runs of `body`, returning wall ns/op and probe allocs/op.
template <typename F>
OpSample Measure(size_t iters, F&& body) {
  uint64_t alloc_start = AllocProbeAllocCount();
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) {
    body(i);
  }
  auto t1 = std::chrono::steady_clock::now();
  OpSample s;
  double total_ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  s.ns_per_op = total_ns / static_cast<double>(iters);
  s.allocs_per_op = static_cast<double>(AllocProbeAllocCount() - alloc_start) /
                    static_cast<double>(iters);
  return s;
}

HotpathSample MeasureHotpath(size_t iters) {
  HotpathSample out;

  // Nothing-due trigger check: one far-out pending event, steady state.
  {
    Env env;
    env.facility.ScheduleSoftEvent(1'000'000'000,
                                   [](const SoftTimerFacility::FireInfo&) {});
    for (size_t i = 0; i < 1000; ++i) {
      env.facility.OnTriggerState(TriggerSource::kSyscall);  // warmup
    }
    out.nothing_due_check = Measure(iters, [&](size_t) {
      benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
    });
  }

  // Schedule and cancel, measured separately over batches so each op is
  // timed in isolation. One untimed warmup round grows the slab and the
  // ids vector to their high-water marks first.
  {
    Env env;
    constexpr size_t kBatch = 512;
    size_t rounds = iters / kBatch + 1;
    std::vector<SoftEventId> ids(kBatch);
    auto run_round = [&](bool timed) {
      auto sched = Measure(kBatch, [&](size_t i) {
        ids[i] = env.facility.ScheduleSoftEvent(
            1000 + i, [](const SoftTimerFacility::FireInfo&) {});
      });
      auto canc = Measure(kBatch, [&](size_t i) {
        benchmark::DoNotOptimize(env.facility.CancelSoftEvent(ids[i]));
      });
      if (timed) {
        out.schedule.ns_per_op += sched.ns_per_op;
        out.schedule.allocs_per_op += sched.allocs_per_op;
        out.cancel.ns_per_op += canc.ns_per_op;
        out.cancel.allocs_per_op += canc.allocs_per_op;
      }
    };
    run_round(false);
    for (size_t r = 0; r < rounds; ++r) {
      run_round(true);
    }
    out.schedule.ns_per_op /= static_cast<double>(rounds);
    out.schedule.allocs_per_op /= static_cast<double>(rounds);
    out.cancel.ns_per_op /= static_cast<double>(rounds);
    out.cancel.allocs_per_op /= static_cast<double>(rounds);
  }

  // Full schedule -> clock advance -> dispatch cycle.
  {
    Env env;
    auto cycle = [&](size_t) {
      env.facility.ScheduleSoftEvent(1, [](const SoftTimerFacility::FireInfo&) {});
      env.sim.RunUntil(env.sim.now() + SimDuration::Nanos(2'000));
      benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
    };
    for (size_t i = 0; i < 1000; ++i) {
      cycle(i);  // warmup
    }
    out.dispatch_cycle = Measure(iters, cycle);
  }

  // Burst dispatch: 128 events all due at the same trigger state, the shape
  // a pacing-wheel drain or an ack storm produces. Normalized per event, so
  // the delta against dispatch_cycle is the marginal cost of one extra due
  // event, and the 1-vs-64 max_dispatches_per_clock_read split isolates
  // what the amortized batch clock read saves.
  constexpr size_t kBurst = 128;
  auto measure_burst = [&](uint32_t max_reads) {
    Env env(max_reads);
    auto round = [&](size_t) {
      for (size_t e = 0; e < kBurst; ++e) {
        env.facility.ScheduleSoftEvent(1, [](const SoftTimerFacility::FireInfo&) {});
      }
      env.sim.RunUntil(env.sim.now() + SimDuration::Nanos(2'000));
      benchmark::DoNotOptimize(env.facility.OnTriggerState(TriggerSource::kSyscall));
    };
    for (size_t i = 0; i < 64; ++i) {
      round(i);  // warmup
    }
    size_t rounds = iters / kBurst > 0 ? iters / kBurst : 1;
    OpSample s = Measure(rounds, round);
    s.ns_per_op /= static_cast<double>(kBurst);
    s.allocs_per_op /= static_cast<double>(kBurst);
    return s;
  };
  out.burst_dispatch_read_every_event = measure_burst(1);
  out.burst_dispatch_amortized_reads = measure_burst(64);

  // Update-heavy mix: a pool of live far-out events whose deadlines keep
  // moving, one re-arm per measured op. The pool never drains, so this is
  // pure re-arm cost - the dominant write pattern of an RTO engine
  // restarting a connection's timer on every partial ACK.
  constexpr size_t kPool = 4096;
  auto measure_rearm = [&](bool reschedule) {
    Env env;
    std::vector<SoftEventId> ids(kPool);
    for (size_t i = 0; i < kPool; ++i) {
      ids[i] = env.facility.ScheduleSoftEvent(
          1'000'000 + i, [](const SoftTimerFacility::FireInfo&) {});
    }
    auto rearm = [&](size_t i) {
      size_t slot = i % kPool;
      uint64_t delta = 1'000'000 + ((i * 7) & 4095);
      if (reschedule) {
        env.facility.RescheduleSoftEvent(ids[slot], delta);
      } else {
        env.facility.CancelSoftEvent(ids[slot]);
        ids[slot] = env.facility.ScheduleSoftEvent(
            delta, [](const SoftTimerFacility::FireInfo&) {});
      }
    };
    for (size_t i = 0; i < kPool; ++i) {
      rearm(i);  // warmup: slab and heap entry vector high-water
    }
    return Measure(iters, rearm);
  };
  out.update = measure_rearm(true);
  out.update_emulated = measure_rearm(false);

  return out;
}

void WriteOp(FILE* f, const char* name, const OpSample& s, const char* trailer) {
  std::fprintf(f,
               "      \"%s_ns\": %.2f,\n"
               "      \"%s_allocs_per_op\": %.3f%s\n",
               name, s.ns_per_op, name, s.allocs_per_op, trailer);
}

int WriteHotpathJson(const std::string& path, size_t iters) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"schema\": \"softtimer-hotpath-v1\",\n");
  std::fprintf(f,
               "  \"note\": \"facility-level hot-path costs; sim clock at 1 MHz; "
               "ns/op is wall time on the build machine, allocs/op from the "
               "operator-new probe; burst_dispatch_* is a 128-due-event drain "
               "normalized per event, with one clock read per event vs the "
               "amortized default (one per 64 dispatches); update is one "
               "RescheduleSoftEvent over a 4096-event live pool, "
               "update_emulated the equivalent cancel+schedule pair\",\n");
  // Facility-level numbers measured on this machine immediately before the
  // typed-node / slab / fast-gate rework (on the hashed-wheel queue, then the
  // default), kept for comparison: the nothing-due check must stay >= 2x
  // faster than this.
  std::fprintf(f,
               "  \"baseline_pre_pr\": {\n"
               "    \"queue\": \"hashed-wheel\",\n"
               "    \"trigger_check_empty_ns\": 10.5,\n"
               "    \"trigger_check_nothing_due_ns\": 10.8,\n"
               "    \"schedule_cancel_pair_ns\": 127.0,\n"
               "    \"schedule_cancel_pair_allocs_per_op\": 2.000,\n"
               "    \"schedule_dispatch_cycle_ns\": 204.0,\n"
               "    \"schedule_dispatch_cycle_allocs_per_op\": 3.005,\n"
               "    \"trigger_check_nothing_due_allocs_per_op\": 0.000\n"
               "  },\n");
  std::fprintf(f, "  \"current\": {\n");
  HotpathSample s = MeasureHotpath(iters);
  std::fprintf(f, "    \"heap\": {\n");
  WriteOp(f, "schedule", s.schedule, ",");
  WriteOp(f, "cancel", s.cancel, ",");
  WriteOp(f, "nothing_due_check", s.nothing_due_check, ",");
  WriteOp(f, "dispatch_cycle", s.dispatch_cycle, ",");
  WriteOp(f, "burst_dispatch_read_every_event",
          s.burst_dispatch_read_every_event, ",");
  WriteOp(f, "burst_dispatch_amortized_reads",
          s.burst_dispatch_amortized_reads, ",");
  WriteOp(f, "update", s.update, ",");
  WriteOp(f, "update_emulated", s.update_emulated, "");
  std::fprintf(f, "    }\n");
  std::printf("%-12s schedule %6.1f ns  cancel %6.1f ns  nothing-due %5.2f ns "
              "(allocs/op %.3f)  dispatch-cycle %6.1f ns  "
              "burst/event %5.1f -> %5.1f ns  "
              "update %5.1f ns vs pair %5.1f ns\n",
              "heap", s.schedule.ns_per_op, s.cancel.ns_per_op,
              s.nothing_due_check.ns_per_op, s.nothing_due_check.allocs_per_op,
              s.dispatch_cycle.ns_per_op,
              s.burst_dispatch_read_every_event.ns_per_op,
              s.burst_dispatch_amortized_reads.ns_per_op, s.update.ns_per_op,
              s.update_emulated.ns_per_op);
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace softtimer

int main(int argc, char** argv) {
  std::string json_path;
  size_t iters = 200'000;
  // Strip our flags before google-benchmark (which rejects unknown ones).
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--hotpath-json=", 15) == 0) {
      json_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--hotpath-iters=", 16) == 0) {
      iters = static_cast<size_t>(std::strtoull(argv[i] + 16, nullptr, 10));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return softtimer::WriteHotpathJson(json_path, iters == 0 ? 1 : iters);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
