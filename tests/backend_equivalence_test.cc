// Dispatch-trace pin: the soft-timer facility's observable behaviour (which
// events fire, when, from which trigger source) on one deterministic Kernel
// workload. The trace's length and digest were recorded when the facility
// still had a second queue backend (the 4.3BSD callout list), on which both
// backends produced this exact trace; the queue under the facility must keep
// producing it.

#include <gtest/gtest.h>

#include <cstdint>
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
};

std::vector<Dispatch> RunKernel() {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
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

// 64-bit FNV-1a over each dispatch's {scheduled, fired, source} bytes:
// the two ticks little-endian, then the source's one byte.
uint64_t TraceDigest(const std::vector<Dispatch>& trace) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const Dispatch& d : trace) {
    mix(d.scheduled, 8);
    mix(d.fired, 8);
    mix(static_cast<uint64_t>(d.source), 1);
  }
  return h;
}

TEST(BackendEquivalenceTest, IdenticalDispatchTracesAcrossAllTimerQueues) {
  std::vector<Dispatch> trace = RunKernel();
  EXPECT_EQ(trace.size(), 5'714u);
  EXPECT_EQ(TraceDigest(trace), 0xdb0753fcc2725fc1ull);
}

}  // namespace
}  // namespace softtimer
