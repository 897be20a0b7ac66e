// Integration tests for the fault-injection harness (src/fault) and the
// graceful-degradation layer it exercises.
//
// The acceptance scenario: a 10-backup-period trigger drought combined with
// backup-interrupt loss. With the degradation policy off, the plan provably
// violates the paper's T + X + 1 bound; with it on, the escalated backup
// rate still dispatches every event and cuts the latency tail. The same
// (plan, seed) pair must also reproduce bit-identical statistics across
// runs, which is what makes fault campaigns regression-testable.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/core/soft_timer_facility.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/fault/faulty_clock_source.h"
#include "src/machine/kernel.h"
#include "src/machine/machine_profile.h"
#include "src/net/link.h"
#include "src/sim/simulator.h"

namespace softtimer {
namespace {

constexpr uint64_t kMeasureHz = 1'000'000;
constexpr uint64_t kX = 1000;  // ticks per backup interval at 1 kHz

// --- Drought + backup loss: the acceptance scenario -------------------------

struct RunResult {
  uint64_t scheduled = 0;
  uint64_t dispatched = 0;
  uint64_t max_lateness = 0;
  double lateness_sum = 0;
  bool in_drought_at_end = false;
  // Policy stats (zero when degradation is off).
  uint64_t escalations = 0;
  uint64_t deescalations = 0;
  uint64_t droughts_detected = 0;
  uint64_t droughts_ended = 0;
  // Kernel stats.
  uint64_t triggers = 0;
  uint64_t triggers_suppressed = 0;
  uint64_t backup_ticks = 0;
  uint64_t backup_ticks_lost = 0;
  // Injector stats.
  uint64_t inj_triggers_suppressed = 0;
  uint64_t inj_backups_dropped = 0;

  double mean_lateness() const {
    return dispatched ? lateness_sum / static_cast<double>(dispatched) : 0.0;
  }
};

// 10-backup-period trigger drought over [5000, 15000) ticks with 60% backup
// loss in the same window, against a dense syscall trigger stream and a
// steady feed of short-delay soft events.
RunResult RunDroughtScenario(bool degradation_on, uint64_t seed) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_jitter_sigma = 0;
  kc.degradation.enabled = degradation_on;
  kc.degradation.density_floor_checks_per_interval = 4;
  kc.degradation.max_backup_rate_multiplier = 8;
  kc.degradation.deescalate_after_healthy_intervals = 4;
  Kernel kernel(&sim, kc);
  kernel.cpu(0).Submit(SimDuration::Seconds(10));  // busy: no idle-loop rescue

  fault::FaultPlan plan;
  plan.trigger_droughts.push_back({5'000, 10 * kX});
  plan.backup_loss.push_back({{5'000, 10 * kX}, 0.6});
  SimClockSource true_clock(&sim, kMeasureHz);
  fault::FaultInjector inj(&true_clock, plan, seed);
  inj.InstallOn(&kernel);

  RunResult r;

  std::function<void()> trig = [&] {
    kernel.Trigger(TriggerSource::kSyscall);
    sim.ScheduleAfter(SimDuration::Micros(40), trig);
  };
  sim.ScheduleAfter(SimDuration::Micros(40), trig);

  std::function<void()> sched = [&] {
    if (kernel.soft_timers().MeasureTime() >= 16'000) {
      return;
    }
    ++r.scheduled;
    kernel.soft_timers().ScheduleSoftEvent(
        100, [&](const SoftTimerFacility::FireInfo& info) {
          ++r.dispatched;
          r.max_lateness = std::max(r.max_lateness, info.lateness_ticks());
          r.lateness_sum += static_cast<double>(info.lateness_ticks());
        });
    sim.ScheduleAfter(SimDuration::Micros(500), sched);
  };
  sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(4'500), sched);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(30));

  if (const DegradationPolicy* p = kernel.soft_timers().degradation()) {
    r.in_drought_at_end = p->in_drought();
    r.escalations = p->stats().escalations;
    r.deescalations = p->stats().deescalations;
    r.droughts_detected = p->stats().droughts_detected;
    r.droughts_ended = p->stats().droughts_ended;
  }
  r.triggers = kernel.stats().triggers;
  r.triggers_suppressed = kernel.stats().triggers_suppressed;
  r.backup_ticks = kernel.stats().backup_ticks;
  r.backup_ticks_lost = kernel.stats().backup_ticks_lost;
  r.inj_triggers_suppressed = inj.stats().triggers_suppressed;
  r.inj_backups_dropped = inj.stats().backups_dropped;
  return r;
}

TEST(FaultInjectionTest, DroughtWithBackupLossNeedsDegradationToHoldUp) {
  RunResult off = RunDroughtScenario(/*degradation_on=*/false, /*seed=*/7);
  RunResult on = RunDroughtScenario(/*degradation_on=*/true, /*seed=*/7);

  ASSERT_EQ(on.scheduled, off.scheduled);
  ASSERT_GT(on.scheduled, 15u);

  // Off side: the plan provably breaks the paper's bound - some event's
  // lateness exceeds X + 1 ticks (lateness = actual - T, so the bound says
  // lateness <= X + 1).
  EXPECT_GT(off.max_lateness, kX + 1);
  EXPECT_EQ(off.dispatched, off.scheduled);  // everything does fire eventually

  // On side: every event dispatched, the drought was detected, the backup
  // rate escalated (more backup ticks ran), and the system returned to
  // nominal after the fault cleared.
  EXPECT_EQ(on.dispatched, on.scheduled);
  EXPECT_GE(on.escalations, 2u);
  EXPECT_GE(on.droughts_detected, 1u);
  EXPECT_GE(on.droughts_ended, 1u);
  EXPECT_FALSE(on.in_drought_at_end);
  EXPECT_GT(on.backup_ticks, off.backup_ticks);

  // The escalated rate cuts the latency tail the fault opened.
  EXPECT_LE(on.max_lateness, off.max_lateness);
  EXPECT_LT(on.mean_lateness(), off.mean_lateness());

  // The drought actually suppressed triggers, and the kernel's loss
  // accounting agrees with the injector's.
  EXPECT_GT(on.triggers_suppressed, 100u);
  EXPECT_EQ(on.triggers_suppressed, on.inj_triggers_suppressed);
  EXPECT_EQ(on.backup_ticks_lost, on.inj_backups_dropped);
}

TEST(FaultInjectionTest, SamePlanAndSeedReproduceIdenticalStats) {
  RunResult a = RunDroughtScenario(/*degradation_on=*/true, /*seed=*/21);
  RunResult b = RunDroughtScenario(/*degradation_on=*/true, /*seed=*/21);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.max_lateness, b.max_lateness);
  EXPECT_EQ(a.lateness_sum, b.lateness_sum);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.deescalations, b.deescalations);
  EXPECT_EQ(a.droughts_detected, b.droughts_detected);
  EXPECT_EQ(a.droughts_ended, b.droughts_ended);
  EXPECT_EQ(a.triggers, b.triggers);
  EXPECT_EQ(a.triggers_suppressed, b.triggers_suppressed);
  EXPECT_EQ(a.backup_ticks, b.backup_ticks);
  EXPECT_EQ(a.backup_ticks_lost, b.backup_ticks_lost);
  EXPECT_EQ(a.inj_triggers_suppressed, b.inj_triggers_suppressed);
  EXPECT_EQ(a.inj_backups_dropped, b.inj_backups_dropped);
  // And a different seed perturbs the run (the loss pattern moves).
  RunResult c = RunDroughtScenario(/*degradation_on=*/true, /*seed=*/22);
  EXPECT_NE(a.inj_backups_dropped, c.inj_backups_dropped);
}

// --- Handler overrun -> quarantine ------------------------------------------

TEST(FaultInjectionTest, QuarantineBoundsCollateralDamage) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_jitter_sigma = 0;
  kc.degradation.enabled = true;
  kc.degradation.handler_budget_ticks = 50;
  kc.degradation.quarantine_after_strikes = 2;
  kc.degradation.quarantine_release_after_clean = 1'000'000;  // no release here
  Kernel kernel(&sim, kc);
  kernel.cpu(0).Submit(SimDuration::Seconds(10));

  constexpr uint32_t kRogueTag = 9;
  fault::FaultPlan plan;
  plan.handler_overruns.push_back(
      {{0, 40'000}, kRogueTag, SimDuration::Micros(500)});
  SimClockSource true_clock(&sim, kMeasureHz);
  fault::FaultInjector inj(&true_clock, plan, 3);
  inj.InstallOn(&kernel);

  std::function<void()> trig = [&] {
    kernel.Trigger(TriggerSource::kSyscall);
    sim.ScheduleAfter(SimDuration::Micros(40), trig);
  };
  sim.ScheduleAfter(SimDuration::Micros(40), trig);

  // The rogue handler reschedules itself forever.
  uint64_t rogue_fires = 0;
  std::function<void(const SoftTimerFacility::FireInfo&)> rogue =
      [&](const SoftTimerFacility::FireInfo&) {
        ++rogue_fires;
        kernel.soft_timers().ScheduleSoftEvent(200, rogue, kRogueTag);
      };
  kernel.soft_timers().ScheduleSoftEvent(200, rogue, kRogueTag);

  // Innocent short-delay events; their lateness is the collateral damage.
  uint64_t victim_max_late_after_quarantine = 0;
  uint64_t victims_after_quarantine = 0;
  std::function<void()> victim = [&] {
    if (kernel.soft_timers().MeasureTime() >= 18'000) {
      return;
    }
    uint64_t born = kernel.soft_timers().MeasureTime();
    kernel.soft_timers().ScheduleSoftEvent(
        50, [&, born](const SoftTimerFacility::FireInfo& info) {
          // Skip the pre-quarantine warmup: the first two rogue dispatches
          // legitimately stall the kernel for 500 us each.
          if (born >= 3'000) {
            ++victims_after_quarantine;
            victim_max_late_after_quarantine =
                std::max(victim_max_late_after_quarantine, info.lateness_ticks());
          }
        });
    sim.ScheduleAfter(SimDuration::Micros(300), victim);
  };
  sim.ScheduleAfter(SimDuration::Micros(10), victim);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(20));

  const DegradationPolicy* p = kernel.soft_timers().degradation();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->stats().quarantines, 1u);
  EXPECT_TRUE(p->IsQuarantined(kRogueTag));
  EXPECT_GT(p->stats().deferred_quarantine, 0u);
  // The rogue still makes progress - via backup-interrupt dispatches, with
  // its overrun capped at the budget by the host watchdog.
  EXPECT_GT(rogue_fires, 5u);
  // Collateral damage bound: once the rogue is quarantined, no innocent
  // event is delayed by more than one backup period.
  ASSERT_GT(victims_after_quarantine, 20u);
  EXPECT_LE(victim_max_late_after_quarantine, kX);
}

// --- Batch cap ---------------------------------------------------------------

TEST(FaultInjectionTest, BatchCapBoundsDispatchesPerCheck) {
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  SoftTimerFacility::Config cfg;
  cfg.degradation.enabled = true;
  cfg.degradation.max_dispatches_per_check = 4;
  SoftTimerFacility fac(&clock, cfg);

  int fired = 0;
  for (int i = 0; i < 20; ++i) {
    fac.ScheduleSoftEvent(10, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  }
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(100));
  // Each check dispatches at most 4 handlers and carries the rest forward.
  for (int check = 1; check <= 5; ++check) {
    EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 4u)
        << "check " << check;
    EXPECT_EQ(fired, 4 * check);
    sim.RunUntil(SimTime::Zero() + SimDuration::Micros(100 + check));
  }
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 0u);
  EXPECT_EQ(fac.degradation()->stats().deferred_batch_cap, 16u + 12u + 8u + 4u);
}

TEST(FaultInjectionTest, BatchCapDeferralKeepsIdAndCookie) {
  // A deferral re-queues the event under its own id with its payload
  // intact, so every cookie retires exactly once with its own value:
  // whether its event dispatched after a deferral, or was cancelled by its
  // original id while deferred.
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  SoftTimerFacility::Config cfg;
  cfg.degradation.enabled = true;
  cfg.degradation.max_dispatches_per_check = 1;
  SoftTimerFacility fac(&clock, cfg);
  std::vector<uint64_t> retired;
  fac.set_event_retired_hook(
      [](void* ctx, uint64_t cookie) {
        static_cast<std::vector<uint64_t>*>(ctx)->push_back(cookie);
      },
      &retired);

  std::vector<uint64_t> fired;  // cookies of dispatched events, in order
  std::vector<SoftEventId> ids;
  for (uint64_t cookie = 0xC0; cookie < 0xC4; ++cookie) {
    ids.push_back(fac.ScheduleSoftEventFrom(
        fac.MeasureTime(), 10,
        [&fired, cookie](const SoftTimerFacility::FireInfo&) {
          fired.push_back(cookie);
        },
        0, cookie));
  }
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(100));
  // Cap 1: the first event dispatches, the other three defer.
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, (std::vector<uint64_t>{0xC0}));
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xC0}));
  EXPECT_EQ(fac.pending_count(), 3u);
  // A deferred event cancels by its original id and retires its own cookie.
  EXPECT_TRUE(fac.CancelSoftEvent(ids[2]));
  EXPECT_FALSE(fac.CancelSoftEvent(ids[2]));
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xC0, 0xC2}));
  // The other two dispatch one per check, each after a deferral.
  for (int check = 1; check <= 3; ++check) {
    sim.RunUntil(SimTime::Zero() + SimDuration::Micros(100 + check));
    fac.OnTriggerState(TriggerSource::kSyscall);
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{0xC0, 0xC1, 0xC3}));
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xC0, 0xC2, 0xC1, 0xC3}));
  EXPECT_EQ(fac.pending_count(), 0u);
  EXPECT_FALSE(fac.CancelSoftEvent(ids[1]));
  EXPECT_FALSE(fac.CancelSoftEvent(ids[3]));
  EXPECT_EQ(fac.degradation()->stats().deferred_batch_cap, 3u + 1u);
}

TEST(FaultInjectionTest, QuarantinedEventsDeferToBackupAndStayCancellable) {
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  SoftTimerFacility::Config cfg;
  cfg.degradation.enabled = true;
  cfg.degradation.handler_budget_ticks = 10;
  cfg.degradation.quarantine_after_strikes = 1;
  SoftTimerFacility fac(&clock, cfg);
  // The host reports a huge cost for tag 9 dispatches.
  fac.set_dispatch_hook(
      [](void*, const SoftTimerFacility::FireInfo& info) {
        return info.handler_tag == 9 ? uint64_t{100} : uint64_t{0};
      },
      nullptr);

  int fired = 0;
  fac.ScheduleSoftEvent(5, [&](const SoftTimerFacility::FireInfo&) { ++fired; }, 9);
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(10));
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 1u);  // first strike
  EXPECT_EQ(fired, 1);
  ASSERT_TRUE(fac.degradation()->IsQuarantined(9));

  // A new tag-9 event is deferred at ordinary trigger states...
  int fired2 = 0;
  fac.ScheduleSoftEvent(5, [&](const SoftTimerFacility::FireInfo& info) {
    ++fired2;
    EXPECT_EQ(info.source, TriggerSource::kBackupIntr);
  }, 9);
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(20));
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 0u);
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(25));
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kIpOutput), 0u);
  EXPECT_EQ(fired2, 0);
  // ...but fires at the backup interrupt.
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(30));
  EXPECT_EQ(fac.OnBackupInterrupt(), 1u);
  EXPECT_EQ(fired2, 1);

  // A deferred event's public id keeps working for cancellation.
  int fired3 = 0;
  SoftEventId id = fac.ScheduleSoftEvent(
      5, [&](const SoftTimerFacility::FireInfo&) { ++fired3; }, 9);
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(40));
  EXPECT_EQ(fac.OnTriggerState(TriggerSource::kSyscall), 0u);  // deferred
  EXPECT_TRUE(fac.CancelSoftEvent(id));
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(50));
  fac.OnBackupInterrupt();
  EXPECT_EQ(fired3, 0);
}

// --- Clock anomalies ---------------------------------------------------------

TEST(FaultyClockSourceTest, StallFreezesThenLagsAndJumpLeaps) {
  Simulator sim;
  SimClockSource base(&sim, kMeasureHz);
  fault::FaultyClockSource fc(&base, {{1'000, 500}}, {{3'000, 300}});
  uint64_t prev = 0;
  auto at = [&](int64_t us) {
    sim.RunUntil(SimTime::Zero() + SimDuration::Micros(static_cast<double>(us)));
    uint64_t t = fc.NowTicks();
    EXPECT_GE(t, prev) << "monotonicity at true tick " << us;
    prev = t;
    return t;
  };
  EXPECT_EQ(at(999), 999u);
  EXPECT_EQ(at(1'200), 1'000u);  // frozen
  EXPECT_EQ(at(1'500), 1'000u);  // stall ends: lost exactly 500
  EXPECT_EQ(at(1'600), 1'100u);  // running again, lagging by 500
  EXPECT_EQ(at(2'999), 2'499u);
  EXPECT_EQ(at(3'000), 2'800u);  // jump: -500 + 300
  EXPECT_EQ(fc.ResolutionHz(), kMeasureHz);
}

TEST(FaultInjectionTest, FacilityToleratesClockStall) {
  Simulator sim;
  SimClockSource base(&sim, kMeasureHz);
  fault::FaultyClockSource fc(&base, {{100, 400}}, {});
  SoftTimerFacility::Config cfg;
  SoftTimerFacility fac(&fc, cfg);

  // Schedule while the clock is frozen at tick 100 (true time 150 us).
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(150));
  ASSERT_EQ(fac.MeasureTime(), 100u);
  int fired = 0;
  fac.ScheduleSoftEvent(20, [&](const SoftTimerFacility::FireInfo& info) {
    ++fired;
    // The anomaly must not wrap lateness into a huge value.
    EXPECT_LT(info.lateness_ticks(), 1'000u);
  });
  // Checks during the stall see no progress, so nothing fires.
  for (int us = 200; us <= 500; us += 100) {
    sim.RunUntil(SimTime::Zero() + SimDuration::Micros(static_cast<double>(us)));
    fac.OnTriggerState(TriggerSource::kSyscall);
  }
  EXPECT_EQ(fired, 0);
  // 525 us true time = tick 125 >= deadline 121: fires, 375 us of true time
  // late but only a few ticks late on the measured clock.
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(525));
  fac.OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
  EXPECT_LT(fac.stats().lateness_ticks.max(), 1'000u);
}

// --- Clock faults, end to end -------------------------------------------------

TEST(FaultInjectionTest, ClockStallAndJumpKeepThePaperBoundOnTheFacilityClock) {
  // The drought scenario's shape with clock faults instead: a busy CPU, a
  // syscall trigger every 40 us and a T = 100 event every 500 us, while the
  // facility's clock (FaultInjector::faulty_clock() as the kernel's measure
  // clock) stalls for 3.5 backup periods and later leaps 2,000 ticks
  // forward. Measured on that clock a stall only postpones what falls due,
  // so every event meets T < actual < T + X + 1, the stalled ones included;
  // an event whose wait contains the jump fires within the jump + X + 1.
  constexpr uint64_t kT = 100;
  constexpr uint64_t kStallAt = 6'050;  // true ticks, like the jump's
  constexpr uint64_t kStall = 3'500;
  constexpr uint64_t kJumpAt = 12'050;
  constexpr uint64_t kJump = 2'000;
  Simulator sim;
  SimClockSource true_clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  plan.clock_stalls.push_back({kStallAt, kStall});
  plan.clock_jumps.push_back({kJumpAt, kJump});
  fault::FaultInjector inj(&true_clock, plan, /*seed=*/5);
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_jitter_sigma = 0;
  kc.measure_clock_override = inj.faulty_clock();
  Kernel kernel(&sim, kc);
  inj.InstallOn(&kernel);
  kernel.cpu(0).Submit(SimDuration::Seconds(10));  // busy: no idle-loop rescue

  std::function<void()> trig = [&] {
    kernel.Trigger(TriggerSource::kSyscall);
    sim.ScheduleAfter(SimDuration::Micros(40), trig);
  };
  sim.ScheduleAfter(SimDuration::Micros(40), trig);

  struct Event {
    uint64_t scheduled_true = 0;
    uint64_t fired_true = 0;
    int fires = 0;
    SoftTimerFacility::FireInfo info{};
  };
  std::vector<Event> events;
  events.reserve(32);
  std::function<void()> sched = [&] {
    if (true_clock.NowTicks() >= 16'000) {
      return;
    }
    size_t i = events.size();
    events.push_back(Event{true_clock.NowTicks()});
    kernel.soft_timers().ScheduleSoftEvent(
        kT, [&, i](const SoftTimerFacility::FireInfo& info) {
          ++events[i].fires;
          events[i].fired_true = true_clock.NowTicks();
          events[i].info = info;
        });
    sim.ScheduleAfter(SimDuration::Micros(500), sched);
  };
  sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(4'500), sched);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(30));

  ASSERT_EQ(events.size(), 23u);
  size_t stalled = 0;
  size_t jumped = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    ASSERT_EQ(e.fires, 1) << "event " << i;
    // Not early by the facility's clock, and not clamped to 0 either.
    EXPECT_GT(e.info.fired_tick, e.info.scheduled_tick + kT) << "event " << i;
    EXPECT_GE(e.info.lateness_ticks(), 1u) << "event " << i;
    stalled += e.scheduled_true < kStallAt + kStall && e.fired_true > kStallAt;
    if (e.scheduled_true < kJumpAt && kJumpAt <= e.fired_true) {
      ++jumped;
      // The leap itself counts as lateness: past X, within the jump + X + 1.
      EXPECT_GT(e.info.lateness_ticks(), kX) << "event " << i;
      EXPECT_LT(e.info.lateness_ticks(), kJump + kX + 1) << "event " << i;
    } else {
      EXPECT_LT(e.info.lateness_ticks(), kX + 1) << "event " << i;
    }
  }
  EXPECT_EQ(stalled, 8u);  // scheduled at 6,000 through 9,500
  EXPECT_EQ(jumped, 1u);   // scheduled at 12,000
}

// --- Link faults -------------------------------------------------------------

TEST(FaultInjectionTest, LinkBurstLossDropsOnTheWire) {
  Simulator sim;
  Link link(&sim, Link::Config{});
  uint64_t received = 0;
  link.set_receiver([&](const Packet&) { ++received; });

  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  plan.link_faults.push_back({{0, 10'000'000}, 0.5, 0.0});
  fault::FaultInjector inj(&clock, plan, 42);
  inj.InstallOn(&link);

  const int kPackets = 200;
  for (int i = 0; i < kPackets; ++i) {
    sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(20.0 * (i + 1)), [&] {
      Packet p;
      p.size_bytes = 125;
      ASSERT_TRUE(link.Send(p));
    });
  }
  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(100));

  EXPECT_EQ(link.stats().sent, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(received + inj.stats().packets_dropped, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(link.stats().fault_dropped, inj.stats().packets_dropped);
  // p = 0.5 over 200 trials: loss should be in a broad central range.
  EXPECT_GT(inj.stats().packets_dropped, 60u);
  EXPECT_LT(inj.stats().packets_dropped, 140u);
}

TEST(FaultInjectionTest, PacketLossDistinguishesDataFromAcks) {
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  // Drop every data segment, no ACKs, inside the window.
  fault::FaultPlan::PacketLoss loss;
  loss.window = {0, 10'000'000};
  loss.data_drop_probability = 1.0;
  loss.ack_drop_probability = 0.0;
  plan.packet_loss.push_back(loss);
  fault::FaultInjector inj(&clock, plan, 7);

  Packet data;
  data.kind = Packet::Kind::kData;
  Packet ack;
  ack.kind = Packet::Kind::kAck;
  Packet syn;
  syn.kind = Packet::Kind::kSyn;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(inj.LinkAction(data), Link::FaultAction::kDrop);
    EXPECT_EQ(inj.LinkAction(ack), Link::FaultAction::kNone);
    // Kinds outside data/ack pass through a PacketLoss-only plan.
    EXPECT_EQ(inj.LinkAction(syn), Link::FaultAction::kNone);
  }
  EXPECT_EQ(inj.stats().data_dropped, 10u);
  EXPECT_EQ(inj.stats().acks_dropped, 0u);

  // The convenience queries agree with LinkAction.
  EXPECT_TRUE(inj.DropDataSegment());
  EXPECT_FALSE(inj.DropAck());
}

TEST(FaultInjectionTest, AckLossIsProbabilisticAndSeedStable) {
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  fault::FaultPlan::PacketLoss loss;
  loss.window = {0, 10'000'000};
  loss.ack_drop_probability = 0.3;
  plan.packet_loss.push_back(loss);

  auto run = [&](uint64_t seed) {
    fault::FaultInjector inj(&clock, plan, seed);
    uint64_t dropped = 0;
    for (int i = 0; i < 1000; ++i) {
      if (inj.DropAck()) {
        ++dropped;
      }
    }
    return dropped;
  };
  uint64_t a = run(42);
  // p = 0.3 over 1000 trials: broad central range.
  EXPECT_GT(a, 200u);
  EXPECT_LT(a, 400u);
  // Same (plan, seed) reproduces the exact verdict count.
  EXPECT_EQ(a, run(42));
}

TEST(FaultInjectionTest, BurstLossDropsExactlyCountThenStops) {
  Simulator sim;
  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  fault::FaultPlan::BurstLoss burst;
  burst.window = {0, 10'000'000};
  burst.count = 5;
  burst.match_data = true;
  burst.match_acks = false;
  plan.burst_loss.push_back(burst);
  fault::FaultInjector inj(&clock, plan, 1);

  Packet data;
  data.kind = Packet::Kind::kData;
  Packet ack;
  ack.kind = Packet::Kind::kAck;
  uint64_t dropped = 0;
  for (int i = 0; i < 20; ++i) {
    // ACKs never match this burst and never consume its budget.
    EXPECT_EQ(inj.LinkAction(ack), Link::FaultAction::kNone);
    if (inj.LinkAction(data) == Link::FaultAction::kDrop) {
      ++dropped;
    }
  }
  // Deterministic: exactly the first `count` data packets, regardless of
  // seed or interleaving.
  EXPECT_EQ(dropped, 5u);
  EXPECT_EQ(inj.stats().burst_dropped, 5u);
  EXPECT_EQ(inj.stats().data_dropped, 0u);
}

TEST(FaultInjectionTest, BurstLossOnTheWireForcesRetransmissionWindow) {
  // Wire-level integration: a Link with a burst plan delivers everything
  // except the burst, matching the injector's own accounting.
  Simulator sim;
  Link link(&sim, Link::Config{});
  uint64_t received = 0;
  link.set_receiver([&](const Packet&) { ++received; });

  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  fault::FaultPlan::BurstLoss burst;
  burst.window = {0, 10'000'000};
  burst.count = 7;
  plan.burst_loss.push_back(burst);
  fault::FaultInjector inj(&clock, plan, 42);
  inj.InstallOn(&link);

  const int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(20.0 * (i + 1)), [&] {
      Packet p;
      p.kind = Packet::Kind::kData;
      p.size_bytes = 125;
      ASSERT_TRUE(link.Send(p));
    });
  }
  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(100));

  EXPECT_EQ(received, static_cast<uint64_t>(kPackets) - 7u);
  EXPECT_EQ(link.stats().fault_dropped, 7u);
  EXPECT_EQ(inj.stats().burst_dropped, 7u);
}

TEST(FaultInjectionTest, LinkDuplicationDeliversTwice) {
  Simulator sim;
  Link link(&sim, Link::Config{});
  uint64_t received = 0;
  link.set_receiver([&](const Packet&) { ++received; });

  SimClockSource clock(&sim, kMeasureHz);
  fault::FaultPlan plan;
  plan.link_faults.push_back({{0, 10'000'000}, 0.0, 1.0});
  fault::FaultInjector inj(&clock, plan, 42);
  inj.InstallOn(&link);

  const int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(20.0 * (i + 1)), [&] {
      Packet p;
      p.size_bytes = 125;
      ASSERT_TRUE(link.Send(p));
    });
  }
  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(100));

  EXPECT_EQ(received, static_cast<uint64_t>(2 * kPackets));
  EXPECT_EQ(link.stats().fault_duplicated, static_cast<uint64_t>(kPackets));
  EXPECT_EQ(inj.stats().packets_duplicated, static_cast<uint64_t>(kPackets));
}

}  // namespace
}  // namespace softtimer
