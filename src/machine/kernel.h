// The simulated OS kernel of a server host.
//
// Kernel is the integration point the paper's FreeBSD patch occupies: it owns
// the soft-timer facility, fires the periodic backup interrupt, charges CPU
// costs for trigger-state checks / soft dispatches / hardware interrupts,
// runs the idle loop with the paper's halt policy (Section 5.2), and accounts
// every trigger state so the Table 1/2 and Figure 4/5/6 experiments can
// observe the interval stream.
//
// Subsystems (the network stack, the web-server models, workload generators)
// report kernel entries via Trigger()/KernelOp() and raise device interrupts
// via RaiseInterrupt(). The comparison hardware-timer facility of Sections
// 5.1/5.6 is AddPeriodicHardwareTimer(), which models per-interrupt overhead
// and tick loss while interrupts are disabled.

#ifndef SOFTTIMER_SRC_MACHINE_KERNEL_H_
#define SOFTTIMER_SRC_MACHINE_KERNEL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/clock_source.h"
#include "src/core/soft_timer_facility.h"
#include "src/core/trigger.h"
#include "src/machine/cpu.h"
#include "src/machine/machine_profile.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace softtimer {

class Kernel {
 public:
  enum class IdleBehavior {
    // Section 5.2: an idle CPU polls for soft events but halts when (a) no
    // event is due before the next backup interrupt or (b) another idle CPU
    // is already polling.
    kHaltPolicy,
    // The idle loop spins and checks unconditionally (used when measuring
    // trigger-state interval distributions on mostly-idle workloads).
    kSpin,
  };

  struct Config {
    MachineProfile profile;
    // Measurement clock (the paper's typical value is 1 MHz -> 1 us ticks).
    uint64_t measure_hz = 1'000'000;
    // Backup periodic interrupt (the paper's typical value is 1 kHz).
    uint64_t interrupt_clock_hz = 1'000;
    // Graceful-degradation policy for the facility (disabled by default).
    // When enabled, the kernel additionally escalates its backup-interrupt
    // rate to the policy's multiplier and enforces the handler budget by
    // capping a quarantined handler's injected overrun (watchdog preemption).
    DegradationPolicy::Config degradation;
    int num_cpus = 1;
    IdleBehavior idle_behavior = IdleBehavior::kHaltPolicy;
    // Log-normal sigma applied to the idle poll interval (0 = deterministic).
    double idle_poll_jitter_sigma = 0.25;
    // Measurement clock handed to the soft-timer facility instead of the
    // kernel's own SimClockSource (e.g. a fault::FaultyClockSource modelling
    // TSC stalls/jumps). The kernel itself keeps true time; only the
    // facility's MeasureTime() view is affected, which is exactly the
    // anomaly a bad cycle counter produces. Must outlive the kernel.
    const ClockSource* measure_clock_override = nullptr;
    // Simulation speedup: skip the idle loop's no-op checks and jump the
    // poll straight to just past the earliest soft-timer deadline. Firing
    // times are statistically identical (deadline + U[0, poll interval]);
    // only the stream of no-op idle-loop trigger samples is suppressed, so
    // leave this off when measuring trigger-interval distributions.
    bool idle_poll_fast_forward = false;
    uint64_t rng_seed = 1;
  };

  Kernel(Simulator* sim, Config config);

  // --- Fault injection ----------------------------------------------------
  // Hook points a fault harness (src/fault) installs to perturb the kernel
  // deterministically. All optional; unset hooks cost nothing.
  struct FaultHooks {
    // Trigger drought: true suppresses this (non-backup) trigger state, as
    // if the kernel never passed through it.
    std::function<bool(TriggerSource source)> suppress_trigger;
    // Backup-interrupt loss: true drops this backup tick (masked/lost).
    std::function<bool()> drop_backup;
    // Extra delay, in measurement ticks, applied to the next backup tick.
    std::function<uint64_t()> backup_jitter_ticks;
    // Handler overrun: extra runtime charged to a dispatch of this handler
    // tag. A non-zero overrun also models a long non-preemptible section:
    // trigger states and backup ticks are suppressed until it ends.
    std::function<SimDuration(uint32_t handler_tag)> handler_overrun;
  };
  void set_fault_hooks(FaultHooks hooks) { fault_hooks_ = std::move(hooks); }

  // --- Kernel entries (trigger states) ----------------------------------
  // Records a trigger state of `source` on `cpu`: charges the trigger-check
  // cost and polls the soft-timer facility.
  void Trigger(TriggerSource source, int cpu = 0);

  // Trigger + submit `work` (scaled by the machine profile) to `cpu`.
  void KernelOp(TriggerSource source, SimDuration work,
                std::function<void()> on_done = {}, int cpu = 0);

  // --- Interrupts --------------------------------------------------------
  // Raises a device interrupt on `cpu`: steals the hardware interrupt
  // overhead plus `handler_work`, extends the interrupts-disabled window,
  // invokes `handler`, and records a trigger state of `tail_source` at the
  // handler tail.
  void RaiseInterrupt(TriggerSource tail_source, SimDuration handler_work,
                      std::function<void()> handler = {}, int cpu = 0);

  // True while an interrupt service window is in progress (new periodic
  // timer ticks arriving now are lost, per Section 5.7's observation that
  // "some timer interrupts are lost during periods when interrupts are
  // disabled in FreeBSD").
  bool interrupts_disabled() const { return sim_->now() < intr_disabled_until_; }

  // Installs a periodic hardware interrupt timer (the 8253 model used by the
  // Figure 2/3 overhead experiment and the hardware-paced comparators).
  // Returns a handle for RemovePeriodicHardwareTimer / TimerTickStats.
  int AddPeriodicHardwareTimer(uint64_t hz, SimDuration handler_work,
                               std::function<void()> handler = {}, int cpu = 0);
  void RemovePeriodicHardwareTimer(int id);

  struct TimerTickStats {
    uint64_t fired = 0;
    uint64_t lost = 0;
  };
  TimerTickStats periodic_timer_stats(int id) const;

  // --- Accessors ---------------------------------------------------------
  SoftTimerFacility& soft_timers() { return *facility_; }
  const SoftTimerFacility& soft_timers() const { return *facility_; }
  Cpu& cpu(int i = 0) { return *cpus_[static_cast<size_t>(i)]; }
  const MachineProfile& profile() const { return config_.profile; }
  const SimClockSource& clock() const { return clock_; }
  Simulator* sim() { return sim_; }
  Rng& rng() { return rng_; }

  // --- Observation ---------------------------------------------------------
  // Called on every trigger state after a CPU's first, with the interval
  // since the previous trigger state *on the same CPU* (the quantity plotted
  // in Figures 4/5/6; the paper measures per-CPU streams).
  using TriggerObserver =
      std::function<void(TriggerSource source, SimTime now, SimDuration interval)>;
  void set_trigger_observer(TriggerObserver obs) { trigger_observer_ = std::move(obs); }

  // CPU idle/busy transition listeners (e.g. the NIC re-enables interrupts
  // whenever a CPU idles, Section 5.9).
  void AddCpuIdleListener(std::function<void(int cpu, bool idle)> fn);

  struct Stats {
    uint64_t triggers = 0;
    std::array<uint64_t, kNumTriggerSources> triggers_by_source{};
    // The same stream attributed per CPU (indexed [cpu][source], sized to
    // Config::num_cpus). The paper measures trigger streams per CPU; the
    // sharded runtime relies on this attribution to validate that each
    // shard's dispatches come from its own core's trigger states.
    std::vector<std::array<uint64_t, kNumTriggerSources>> triggers_by_source_by_cpu;
    uint64_t backup_ticks = 0;
    // Fault-injection visibility: trigger states swallowed by a drought or a
    // stalled handler, and backup ticks lost to injected masking.
    uint64_t triggers_suppressed = 0;
    uint64_t backup_ticks_lost = 0;
  };
  const Stats& stats() const { return stats_; }
  void ResetTriggerStats();

 private:
  struct PeriodicTimer {
    uint64_t id;
    SimDuration period;
    SimDuration handler_work;
    std::function<void()> handler;
    int cpu;
    EventHandle next;
    TimerTickStats ticks;
    bool removed = false;
    bool deferred = false;  // a latched tick is waiting for interrupts on
  };

  // The facility's dispatch hook: charges the dispatch's cost to the CPU
  // that hit the trigger state and returns it in ticks.
  uint64_t ChargeDispatch(const SoftTimerFacility::FireInfo& info);
  void OnBackupTick();
  void OnPeriodicTick(PeriodicTimer* t);
  void DeferTick(PeriodicTimer* t);
  void OnCpuStateChange(int cpu, bool busy);
  // Starts idle polling on `cpu` if the idle behavior allows it right now.
  void MaybeStartIdlePoll(int cpu);
  void IdlePollStep(int cpu);
  bool IdlePollPermitted(int cpu) const;
  void SchedulePeriodicTick(PeriodicTimer* t);

  Simulator* sim_;
  Config config_;
  SimClockSource clock_;
  std::unique_ptr<SoftTimerFacility> facility_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  Rng rng_;
  FaultHooks fault_hooks_;

  SimTime intr_disabled_until_;
  // End of an injected handler-overrun stall (a long non-preemptible
  // section): trigger states and backup ticks are suppressed until then.
  SimTime handler_stall_until_;
  // Backup-rate multiplier in effect (reprogrammed from the degradation
  // policy's value at trigger states - i.e. when software actually runs).
  uint32_t backup_multiplier_ = 1;
  // Per-CPU previous-trigger timestamps.
  std::vector<SimTime> last_trigger_;
  std::vector<bool> have_last_trigger_;
  int current_trigger_cpu_ = 0;
  TriggerObserver trigger_observer_;
  std::vector<std::function<void(int, bool)>> idle_listeners_;

  // Idle-poll state per CPU.
  struct IdlePollState {
    bool polling = false;
    EventHandle next;
  };
  std::vector<IdlePollState> idle_poll_;
  SimTime next_backup_tick_;

  std::map<uint64_t, std::unique_ptr<PeriodicTimer>> periodic_timers_;
  uint64_t next_timer_id_ = 1;

  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_MACHINE_KERNEL_H_
