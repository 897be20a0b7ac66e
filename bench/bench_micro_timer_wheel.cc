// Microbenchmarks of the timer-queue data structures (google-benchmark).
//
// The paper keeps soft-timer events in "a modified form of timing wheels";
// these benchmarks compare the binary heap (every host's default) and the
// callout list on the operations the facility performs: schedule, cancel,
// the per-trigger-state check (EarliestDeadline + no-op expire), steady
// fire/reschedule churn, and deadline-update churn at various pending-set
// sizes.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/timer/timer_queue.h"

namespace softtimer {
namespace {

TimerQueueKind KindFromArg(int64_t a) {
  return a == 0 ? TimerQueueKind::kHeap : TimerQueueKind::kCalloutList;
}

void BM_Schedule(benchmark::State& state) {
  auto q = MakeTimerQueue(KindFromArg(state.range(0)));
  uint64_t deadline = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->Schedule(deadline, [] {}));
    deadline += 7;
    if (q->size() > 100'000) {
      state.PauseTiming();
      q->ExpireUpTo(deadline);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_Schedule)->Arg(0)->Arg(1);

void BM_ScheduleCancel(benchmark::State& state) {
  auto q = MakeTimerQueue(KindFromArg(state.range(0)));
  for (auto _ : state) {
    TimerId id = q->Schedule(1'000'000, [] {});
    benchmark::DoNotOptimize(q->Cancel(id));
  }
}
BENCHMARK(BM_ScheduleCancel)->Arg(0)->Arg(1);

// The facility's hot path: nothing due, check and move on.
void BM_TriggerCheckNothingDue(benchmark::State& state) {
  auto q = MakeTimerQueue(KindFromArg(state.range(0)));
  size_t pending = static_cast<size_t>(state.range(1));
  for (size_t i = 0; i < pending; ++i) {
    q->Schedule(1'000'000'000 + i, [] {});
  }
  uint64_t now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->EarliestDeadline());
    benchmark::DoNotOptimize(q->ExpireUpTo(now));
    ++now;
  }
}
BENCHMARK(BM_TriggerCheckNothingDue)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 1024})
    ->Args({1, 1024});

// Steady-state churn: one event fires and is rescheduled per step, with a
// standing population of `range(1)` pending timers.
void BM_FireRescheduleChurn(benchmark::State& state) {
  auto q = MakeTimerQueue(KindFromArg(state.range(0)));
  size_t population = static_cast<size_t>(state.range(1));
  uint64_t now = 0;
  for (size_t i = 0; i < population; ++i) {
    q->Schedule(now + 10 + i * 13 % 1000, [] {});
  }
  uint64_t next = now + 5;
  for (auto _ : state) {
    q->Schedule(next, [] {});
    now = next;
    benchmark::DoNotOptimize(q->ExpireUpTo(now));
    next = now + 5;
    // Refill what fired from the standing population.
    while (q->size() < population) {
      q->Schedule(now + 10 + (now * 13) % 1000, [] {});
    }
  }
}
BENCHMARK(BM_FireRescheduleChurn)
    ->Args({0, 16})->Args({1, 16})
    ->Args({0, 4096})->Args({1, 4096});

// Deadline update churn: every step moves one live timer of a standing
// population to a new deadline (TimerQueue::Update's cancel+reschedule).
// Arg 0 selects the backend.
void BM_UpdateChurn(benchmark::State& state) {
  auto q = MakeTimerQueue(KindFromArg(state.range(0)));
  size_t population = static_cast<size_t>(state.range(1));
  std::vector<TimerId> ids(population);
  for (size_t i = 0; i < population; ++i) {
    ids[i] = q->Schedule(1'000'000 + i * 13 % 100'000, [] {});
  }
  uint64_t step = 0;
  for (auto _ : state) {
    size_t slot = step % population;
    ids[slot] = q->Update(ids[slot], 1'000'000 + (step * 7) % 100'000);
    benchmark::DoNotOptimize(ids[slot]);
    ++step;
  }
}
BENCHMARK(BM_UpdateChurn)->Args({0, 4096})->Args({1, 4096});

}  // namespace
}  // namespace softtimer

BENCHMARK_MAIN();
