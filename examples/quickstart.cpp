// Quickstart: schedule soft-timer events on a simulated server and watch
// when they fire.
//
// Builds a machine (Kernel) whose workload makes frequent kernel entries
// (trigger states), schedules events through the paper's API
// (ScheduleSoftEvent), and prints each event's requested delay vs its actual
// firing delay - illustrating the probabilistic-but-bounded semantics:
//
//     T  <  actual  <  T + X + 1
//
// where X is the measurement-ticks-per-backup-interrupt ratio (1000 here).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>
#include <functional>

#include "src/machine/kernel.h"
#include "src/sim/simulator.h"
#include "src/stats/summary_stats.h"

using namespace softtimer;

int main() {
  Simulator sim;

  Kernel::Config cfg;
  cfg.profile = MachineProfile::PentiumII300();
  Kernel kernel(&sim, cfg);

  std::printf("measure_resolution()         = %llu Hz\n",
              (unsigned long long)kernel.soft_timers().MeasureResolution());
  std::printf("interrupt_clock_resolution() = %llu Hz\n",
              (unsigned long long)kernel.soft_timers().InterruptClockResolution());
  std::printf("X (ticks per backup tick)    = %llu\n\n",
              (unsigned long long)kernel.soft_timers().ticks_per_backup_interval());

  // A synthetic workload: a process making a syscall every ~25 us. Each
  // syscall entry is a trigger state where due soft events get dispatched.
  Rng rng(7);
  std::function<void()> churn = [&] {
    kernel.KernelOp(TriggerSource::kSyscall, rng.LogNormalDuration(SimDuration::Micros(18), 0.8),
                    churn);
  };
  churn();

  // Schedule a handful of events with different delays; print what happens.
  std::printf("%-14s %-14s %-14s %s\n", "requested T", "actual delay", "lateness",
              "dispatched from");
  for (uint64_t t : {10, 50, 100, 500, 2000}) {
    uint64_t scheduled_tick = kernel.soft_timers().MeasureTime();
    kernel.soft_timers().ScheduleSoftEvent(
        t, [t, scheduled_tick](const SoftTimerFacility::FireInfo& info) {
          std::printf("%-14llu %-14llu %-14llu %s\n", (unsigned long long)t,
                      (unsigned long long)(info.fired_tick - scheduled_tick),
                      (unsigned long long)info.lateness_ticks(),
                      TriggerSourceName(info.source));
        });
    sim.RunFor(SimDuration::Millis(5));
  }

  // A periodic soft event: reschedules itself every 100 us, 50 times.
  int fires = 0;
  SummaryStats lateness;
  std::function<void(const SoftTimerFacility::FireInfo&)> periodic =
      [&](const SoftTimerFacility::FireInfo& info) {
        lateness.Add(static_cast<double>(info.lateness_ticks()));
        if (++fires < 50) {
          kernel.soft_timers().ScheduleSoftEvent(100, periodic);
        }
      };
  kernel.soft_timers().ScheduleSoftEvent(100, periodic);
  sim.RunFor(SimDuration::Millis(50));

  std::printf("\nperiodic event: %d fires, mean lateness %.1f ticks (max %.0f)\n", fires,
              lateness.mean(), lateness.max());
  std::printf("facility stats: %llu checks, %llu dispatches\n",
              (unsigned long long)kernel.soft_timers().stats().checks,
              (unsigned long long)kernel.soft_timers().stats().dispatches);
  return 0;
}
