// Cross-backend equivalence: the soft-timer facility's observable behaviour
// (which events fire, when, from which trigger source) must be identical for
// every TimerQueue implementation, because the data structure is an
// implementation detail. Runs the same deterministic workload + event load
// on each backend and compares the full dispatch trace.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/machine/kernel.h"
#include "src/workload/trigger_workload.h"

namespace softtimer {
namespace {

struct Dispatch {
  uint64_t scheduled;
  uint64_t fired;
  TriggerSource source;
  bool operator==(const Dispatch&) const = default;
};

std::vector<Dispatch> RunBackend(TimerQueueKind kind) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.queue_kind = kind;
  Kernel kernel(&sim, kc);

  // Deterministic trigger-state churn.
  Rng rng(11);
  std::function<void()> churn = [&] {
    kernel.KernelOp(TriggerSource::kSyscall,
                    rng.LogNormalDuration(SimDuration::Micros(20), 0.7), churn);
  };
  churn();

  std::vector<Dispatch> trace;
  // Deterministic scheduling load: periodic rescheduling events at several
  // cadences plus randomized one-shots.
  Rng sched_rng(23);
  std::function<void()> one_shots = [&] {
    uint64_t t = sched_rng.UniformU64(1'500);
    kernel.soft_timers().ScheduleSoftEvent(t, [&](const SoftTimerFacility::FireInfo& info) {
      trace.push_back({info.scheduled_tick, info.fired_tick, info.source});
    });
    sim.ScheduleAfter(SimDuration::Micros(90), one_shots);
  };
  one_shots();
  // `keep` owns the recurring handlers; the lambdas capture a raw pointer to
  // their own std::function (capturing the shared_ptr would be a refcount
  // cycle and leak).
  std::vector<std::shared_ptr<std::function<void(const SoftTimerFacility::FireInfo&)>>> keep;
  for (uint64_t cadence : {50ULL, 333ULL, 2'000ULL}) {
    auto periodic = std::make_shared<std::function<void(const SoftTimerFacility::FireInfo&)>>();
    auto* fn = periodic.get();
    *periodic = [&trace, &kernel, cadence, fn](const SoftTimerFacility::FireInfo& info) {
      trace.push_back({info.scheduled_tick, info.fired_tick, info.source});
      kernel.soft_timers().ScheduleSoftEvent(cadence, *fn);
    };
    keep.push_back(periodic);
    kernel.soft_timers().ScheduleSoftEvent(cadence, *periodic);
  }

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(200));
  return trace;
}

TEST(BackendEquivalenceTest, IdenticalDispatchTracesAcrossAllTimerQueues) {
  std::vector<Dispatch> reference = RunBackend(TimerQueueKind::kHeap);
  ASSERT_GT(reference.size(), 3'000u);
  for (TimerQueueKind kind : {TimerQueueKind::kCalloutList}) {
    std::vector<Dispatch> trace = RunBackend(kind);
    EXPECT_EQ(trace.size(), reference.size()) << TimerQueueKindName(kind);
    ASSERT_EQ(trace, reference) << TimerQueueKindName(kind);
  }
}

}  // namespace
}  // namespace softtimer
