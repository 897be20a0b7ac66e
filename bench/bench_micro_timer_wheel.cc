// Microbenchmarks of the timer-queue data structures (google-benchmark).
//
// The paper keeps soft-timer events in "a modified form of timing wheels";
// this library keeps them in one binary heap (DESIGN.md section 13). These
// benchmarks time it on the operations the facility performs: schedule,
// cancel, the per-trigger-state check (EarliestDeadline + no-op expire),
// steady fire/reschedule churn, and deadline-update churn at various
// pending-set sizes.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/timer/heap_timer_queue.h"

namespace softtimer {
namespace {

void BM_Schedule(benchmark::State& state) {
  HeapTimerQueue q;
  uint64_t deadline = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Schedule(deadline, [] {}));
    deadline += 7;
    if (q.size() > 100'000) {
      state.PauseTiming();
      q.ExpireUpTo(deadline);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Schedule);

void BM_ScheduleCancel(benchmark::State& state) {
  HeapTimerQueue q;
  for (auto _ : state) {
    TimerId id = q.Schedule(1'000'000, [] {});
    benchmark::DoNotOptimize(q.Cancel(id));
  }
}
BENCHMARK(BM_ScheduleCancel);

// The facility's hot path: nothing due, check and move on.
void BM_TriggerCheckNothingDue(benchmark::State& state) {
  HeapTimerQueue q;
  size_t pending = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < pending; ++i) {
    q.Schedule(1'000'000'000 + i, [] {});
  }
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.EarliestDeadline());
    benchmark::DoNotOptimize(q.ExpireUpTo(now));
    ++now;
  }
}
BENCHMARK(BM_TriggerCheckNothingDue)->Arg(4)->Arg(1024);

// Steady-state churn: one event fires and is rescheduled per step, with a
// standing population of `range(0)` pending timers.
void BM_FireRescheduleChurn(benchmark::State& state) {
  HeapTimerQueue q;
  size_t population = static_cast<size_t>(state.range(0));
  uint64_t now = 0;
  for (size_t i = 0; i < population; ++i) {
    q.Schedule(now + 10 + i * 13 % 1000, [] {});
  }
  uint64_t next = now + 5;
  for (auto _ : state) {
    q.Schedule(next, [] {});
    now = next;
    benchmark::DoNotOptimize(q.ExpireUpTo(now));
    next = now + 5;
    // Refill what fired from the standing population.
    while (q.size() < population) {
      q.Schedule(now + 10 + (now * 13) % 1000, [] {});
    }
  }
}
BENCHMARK(BM_FireRescheduleChurn)->Arg(16)->Arg(4096);

// Deadline update churn: every step moves one live timer of a standing
// population to a new deadline (HeapTimerQueue::Update, in place).
void BM_UpdateChurn(benchmark::State& state) {
  HeapTimerQueue q;
  size_t population = static_cast<size_t>(state.range(0));
  std::vector<TimerId> ids(population);
  for (size_t i = 0; i < population; ++i) {
    ids[i] = q.Schedule(1'000'000 + i * 13 % 100'000, [] {});
  }
  uint64_t step = 0;
  for (auto _ : state) {
    size_t slot = step % population;
    benchmark::DoNotOptimize(
        q.Update(ids[slot], 1'000'000 + (step * 7) % 100'000));
    ++step;
  }
}
BENCHMARK(BM_UpdateChurn)->Arg(4096);

}  // namespace
}  // namespace softtimer

BENCHMARK_MAIN();
