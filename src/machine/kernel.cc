#include "src/machine/kernel.h"

#include <cassert>
#include <utility>

namespace softtimer {

Kernel::Kernel(Simulator* sim, Config config)
    : sim_(sim),
      config_(std::move(config)),
      clock_(sim, config_.measure_hz),
      rng_(config_.rng_seed) {
  assert(config_.num_cpus >= 1);

  SoftTimerFacility::Config fc;
  fc.interrupt_clock_hz = config_.interrupt_clock_hz;
  fc.degradation = config_.degradation;
  const ClockSource* measure_clock =
      config_.measure_clock_override ? config_.measure_clock_override : &clock_;
  facility_ = std::make_unique<SoftTimerFacility>(measure_clock, fc);

  facility_->set_dispatch_hook(
      [](void* ctx, const SoftTimerFacility::FireInfo& info) {
        return static_cast<Kernel*>(ctx)->ChargeDispatch(info);
      },
      this);
  // A freshly scheduled event may make idle polling worthwhile again
  // (Section 5.2 halt condition (a)).
  facility_->set_schedule_observer([this] {
    for (int c = 0; c < config_.num_cpus; ++c) {
      if (!cpu(c).busy() && !idle_poll_[static_cast<size_t>(c)].polling) {
        MaybeStartIdlePoll(c);
      }
    }
  });

  for (int i = 0; i < config_.num_cpus; ++i) {
    cpus_.push_back(std::make_unique<Cpu>(sim_, i));
    idle_poll_.push_back(IdlePollState{});
    last_trigger_.push_back(SimTime::Zero());
    have_last_trigger_.push_back(false);
    cpus_.back()->set_state_observer([this, i](bool busy) { OnCpuStateChange(i, busy); });
  }
  stats_.triggers_by_source_by_cpu.resize(static_cast<size_t>(config_.num_cpus));

  // Periodic backup interrupt. It exists in stock kernels too (time slicing),
  // so its cost is charged in every configuration.
  SimDuration backup_period = SimDuration::Seconds(1.0 / static_cast<double>(config_.interrupt_clock_hz));
  next_backup_tick_ = sim_->now() + backup_period;
  sim_->ScheduleAt(next_backup_tick_, [this] { OnBackupTick(); });

  // All CPUs start idle.
  for (int i = 0; i < config_.num_cpus; ++i) {
    MaybeStartIdlePoll(i);
  }
}

// Each dispatched handler costs one procedure call on the CPU that hit the
// trigger state, plus any fault-injected overrun. An overrun also models a
// long non-preemptible section: trigger states and backup ticks are
// suppressed until it ends, which is how a runaway handler starves the
// facility. Once the degradation policy quarantines the tag, the host
// bounds the overrun at the handler budget (watchdog preemption), so a
// quarantined handler can no longer open long stall windows.
uint64_t Kernel::ChargeDispatch(const SoftTimerFacility::FireInfo& info) {
  SimDuration cost = config_.profile.soft_dispatch_cost;
  if (fault_hooks_.handler_overrun) {
    SimDuration extra = fault_hooks_.handler_overrun(info.handler_tag);
    if (extra > SimDuration::Zero()) {
      const DegradationPolicy* policy = facility_->degradation();
      if (policy && policy->handler_budget_ticks() > 0 &&
          policy->IsQuarantined(info.handler_tag)) {
        SimDuration budget =
            clock_.TickPeriod() * static_cast<int64_t>(policy->handler_budget_ticks());
        extra = std::min(extra, budget);
      }
      cost += extra;
      SimTime stall_end = sim_->now() + extra;
      if (stall_end > handler_stall_until_) {
        handler_stall_until_ = stall_end;
      }
    }
  }
  cpu(current_trigger_cpu_).Steal(cost);
  return static_cast<uint64_t>(cost / clock_.TickPeriod());
}

void Kernel::OnBackupTick() {
  ++stats_.backup_ticks;
  // The degradation policy may have escalated the backup rate; jitter faults
  // may delay the next tick.
  double hz = static_cast<double>(config_.interrupt_clock_hz) *
              static_cast<double>(backup_multiplier_);
  SimDuration backup_period = SimDuration::Seconds(1.0 / hz);
  if (fault_hooks_.backup_jitter_ticks) {
    uint64_t jitter = fault_hooks_.backup_jitter_ticks();
    if (jitter > 0) {
      backup_period = backup_period + clock_.TickPeriod() * static_cast<int64_t>(jitter);
    }
  }
  next_backup_tick_ = sim_->now() + backup_period;
  sim_->ScheduleAt(next_backup_tick_, [this] { OnBackupTick(); });

  // The tick is a hardware interrupt: overhead + interrupts-disabled window,
  // and its handler tail is a trigger state, which is where overdue soft
  // events get dispatched. A tick is lost when a fault masks it or a stalled
  // handler has interrupts off.
  SimTime now = sim_->now();
  bool lost = now < handler_stall_until_;
  if (!lost && fault_hooks_.drop_backup && fault_hooks_.drop_backup()) {
    lost = true;
  }
  if (lost) {
    ++stats_.backup_ticks_lost;
    return;
  }
  SimDuration total = config_.profile.hard_interrupt_overhead;
  if (intr_disabled_until_ < now + total) {
    intr_disabled_until_ = now + total;
  }
  cpu(0).Steal(total);
  Trigger(TriggerSource::kBackupIntr, 0);

  // The halt window moved: idle CPUs re-evaluate.
  for (int c = 0; c < config_.num_cpus; ++c) {
    if (!cpu(c).busy() && !idle_poll_[static_cast<size_t>(c)].polling) {
      MaybeStartIdlePoll(c);
    }
  }
}

void Kernel::Trigger(TriggerSource source, int cpu_index) {
  SimTime now = sim_->now();
  if (source != TriggerSource::kBackupIntr) {
    // A trigger drought swallows the check; a stalled handler (injected
    // overrun) means the kernel never reaches a trigger state either.
    if (now < handler_stall_until_ ||
        (fault_hooks_.suppress_trigger && fault_hooks_.suppress_trigger(source))) {
      ++stats_.triggers_suppressed;
      return;
    }
  }
  size_t c = static_cast<size_t>(cpu_index);
  ++stats_.triggers;
  ++stats_.triggers_by_source[static_cast<size_t>(source)];
  ++stats_.triggers_by_source_by_cpu[c][static_cast<size_t>(source)];
  if (trigger_observer_ && have_last_trigger_[c]) {
    trigger_observer_(source, now, now - last_trigger_[c]);
  }
  last_trigger_[c] = now;
  have_last_trigger_[c] = true;

  cpu(cpu_index).Steal(config_.profile.trigger_check_cost);
  current_trigger_cpu_ = cpu_index;
  facility_->OnTriggerState(source);
  // Trigger states are where software runs, so this is where the escalated
  // (or relaxed) backup rate gets programmed into the "hardware" timer.
  backup_multiplier_ = facility_->backup_rate_multiplier();
}

void Kernel::KernelOp(TriggerSource source, SimDuration work,
                      std::function<void()> on_done, int cpu_index) {
  // The trigger state fires when the op starts executing (kernel entry), not
  // when it is enqueued behind other work.
  cpu(cpu_index).Submit(config_.profile.Work(work), std::move(on_done),
                        [this, source, cpu_index] { Trigger(source, cpu_index); });
}

void Kernel::RaiseInterrupt(TriggerSource tail_source, SimDuration handler_work,
                            std::function<void()> handler, int cpu_index) {
  SimTime now = sim_->now();
  SimDuration total = config_.profile.hard_interrupt_overhead + handler_work;
  SimTime start = intr_disabled_until_ > now ? intr_disabled_until_ : now;
  intr_disabled_until_ = start + total;
  cpu(cpu_index).Steal(total);
  if (handler) {
    handler();
  }
  Trigger(tail_source, cpu_index);
}

int Kernel::AddPeriodicHardwareTimer(uint64_t hz, SimDuration handler_work,
                                     std::function<void()> handler, int cpu_index) {
  assert(hz > 0);
  auto t = std::make_unique<PeriodicTimer>();
  t->id = next_timer_id_++;
  t->period = SimDuration::Nanos(static_cast<int64_t>(1'000'000'000ULL / hz));
  t->handler_work = handler_work;
  t->handler = std::move(handler);
  t->cpu = cpu_index;
  PeriodicTimer* raw = t.get();
  periodic_timers_.emplace(t->id, std::move(t));
  SchedulePeriodicTick(raw);
  return static_cast<int>(raw->id);
}

void Kernel::SchedulePeriodicTick(PeriodicTimer* t) {
  t->next = sim_->ScheduleAfter(t->period, [this, t] { OnPeriodicTick(t); });
}

void Kernel::OnPeriodicTick(PeriodicTimer* t) {
  if (t->removed) {
    return;
  }
  if (interrupts_disabled()) {
    // The 8253 latches the interrupt: it fires as soon as interrupts are
    // re-enabled. Only a second tick arriving while one is already pending
    // merges into it and is lost (Section 5.7: "some timer interrupts are
    // lost during periods when interrupts are disabled").
    if (t->deferred) {
      ++t->ticks.lost;
    } else {
      t->deferred = true;
      DeferTick(t);
    }
  } else {
    ++t->ticks.fired;
    RaiseInterrupt(TriggerSource::kOtherIntr, t->handler_work, t->handler, t->cpu);
  }
  SchedulePeriodicTick(t);
}

void Kernel::DeferTick(PeriodicTimer* t) {
  sim_->ScheduleAt(intr_disabled_until_, [this, t] {
    if (t->removed) {
      t->deferred = false;
      return;
    }
    if (interrupts_disabled()) {
      DeferTick(t);  // the disabled window grew while this tick waited
      return;
    }
    t->deferred = false;
    ++t->ticks.fired;
    RaiseInterrupt(TriggerSource::kOtherIntr, t->handler_work, t->handler, t->cpu);
  });
}

void Kernel::RemovePeriodicHardwareTimer(int id) {
  auto it = periodic_timers_.find(static_cast<uint64_t>(id));
  if (it == periodic_timers_.end()) {
    return;
  }
  // Keep the entry alive (its stats stay readable and an in-flight tick
  // event may still hold a pointer); just stop it.
  it->second->removed = true;
  sim_->Cancel(it->second->next);
}

Kernel::TimerTickStats Kernel::periodic_timer_stats(int id) const {
  auto it = periodic_timers_.find(static_cast<uint64_t>(id));
  if (it == periodic_timers_.end()) {
    return TimerTickStats{};
  }
  return it->second->ticks;
}

void Kernel::AddCpuIdleListener(std::function<void(int, bool)> fn) {
  idle_listeners_.push_back(std::move(fn));
}

void Kernel::OnCpuStateChange(int cpu_index, bool busy) {
  IdlePollState& st = idle_poll_[static_cast<size_t>(cpu_index)];
  if (busy) {
    if (st.polling) {
      sim_->Cancel(st.next);
      st.polling = false;
    }
  } else {
    MaybeStartIdlePoll(cpu_index);
  }
  for (auto& fn : idle_listeners_) {
    fn(cpu_index, !busy);
  }
}

bool Kernel::IdlePollPermitted(int cpu_index) const {
  if (config_.idle_behavior == IdleBehavior::kSpin) {
    return true;
  }
  // Halt condition (b): another idle CPU already polls.
  for (int c = 0; c < config_.num_cpus; ++c) {
    if (c != cpu_index && idle_poll_[static_cast<size_t>(c)].polling) {
      return false;
    }
  }
  // Halt condition (a): nothing due before the next backup interrupt.
  std::optional<uint64_t> next_deadline = facility_->NextDeadlineTick();
  if (!next_deadline) {
    return false;
  }
  SimTime deadline_time = clock_.TimeOfTick(*next_deadline);
  return deadline_time < next_backup_tick_;
}

void Kernel::MaybeStartIdlePoll(int cpu_index) {
  IdlePollState& st = idle_poll_[static_cast<size_t>(cpu_index)];
  if (st.polling || cpu(cpu_index).busy()) {
    return;
  }
  if (!IdlePollPermitted(cpu_index)) {
    return;
  }
  st.polling = true;
  SimDuration step = config_.profile.idle_poll_interval;
  if (config_.idle_poll_jitter_sigma > 0) {
    step = rng_.LogNormalDuration(step, config_.idle_poll_jitter_sigma);
  }
  SimTime poll_at = sim_->now() + step;
  if (config_.idle_poll_fast_forward) {
    std::optional<uint64_t> deadline = facility_->NextDeadlineTick();
    if (deadline) {
      SimTime due = clock_.TimeOfTick(*deadline);
      if (due > poll_at) {
        // The spinning idle loop would reach its check at due + U[0, step];
        // jump there directly instead of simulating every no-op iteration.
        poll_at = due + SimDuration::Nanos(static_cast<int64_t>(
                            rng_.NextDouble() * static_cast<double>(step.nanos())));
      }
    }
  }
  st.next = sim_->ScheduleAt(poll_at, [this, cpu_index] { IdlePollStep(cpu_index); });
}

void Kernel::IdlePollStep(int cpu_index) {
  IdlePollState& st = idle_poll_[static_cast<size_t>(cpu_index)];
  st.polling = false;
  if (cpu(cpu_index).busy()) {
    return;
  }
  Trigger(TriggerSource::kIdleLoop, cpu_index);
  // The trigger may have dispatched a handler that made the CPU busy.
  MaybeStartIdlePoll(cpu_index);
}

void Kernel::ResetTriggerStats() {
  stats_ = Stats{};
  stats_.triggers_by_source_by_cpu.resize(static_cast<size_t>(config_.num_cpus));
  for (size_t c = 0; c < have_last_trigger_.size(); ++c) {
    have_last_trigger_[c] = false;
  }
  facility_->ResetStats();
}

}  // namespace softtimer
