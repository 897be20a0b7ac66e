// Unit and property tests for SoftTimerFacility - the paper's contribution.
//
// The central invariant is Section 3's bound on when an event fires:
//
//     T  <  ActualEventTime  <  T + X + 1      (measurement-clock ticks)
//
// provided the backup interrupt runs every X ticks. The property tests
// verify it under randomized trigger-state workloads.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "src/core/clock_source.h"
#include "src/core/soft_timer_facility.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace softtimer {
namespace {

class FacilityFixture : public ::testing::Test {
 protected:
  FacilityFixture() : clock_(&sim_, 1'000'000) {
    SoftTimerFacility::Config cfg;
    cfg.interrupt_clock_hz = 1'000;  // X = 1000
    facility_ = std::make_unique<SoftTimerFacility>(&clock_, cfg);
  }

  void AdvanceTo(SimDuration t) { sim_.RunUntil(SimTime::Zero() + t); }

  Simulator sim_;
  SimClockSource clock_;
  std::unique_ptr<SoftTimerFacility> facility_;
};

TEST_F(FacilityFixture, PaperApiSurfaces) {
  EXPECT_EQ(facility_->MeasureResolution(), 1'000'000u);
  EXPECT_EQ(facility_->InterruptClockResolution(), 1'000u);
  EXPECT_EQ(facility_->ticks_per_backup_interval(), 1000u);
  EXPECT_EQ(facility_->MeasureTime(), 0u);
  AdvanceTo(SimDuration::Micros(123));
  EXPECT_EQ(facility_->MeasureTime(), 123u);
}

TEST_F(FacilityFixture, DoesNotFireBeforeLowerBound) {
  int fired = 0;
  facility_->ScheduleSoftEvent(50, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  // Trigger states up to and including tick 50: must not fire (actual must
  // exceed T).
  for (int t = 1; t <= 50; ++t) {
    AdvanceTo(SimDuration::Micros(t));
    facility_->OnTriggerState(TriggerSource::kSyscall);
  }
  EXPECT_EQ(fired, 0);
  AdvanceTo(SimDuration::Micros(51));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
}

TEST_F(FacilityFixture, FireInfoFields) {
  AdvanceTo(SimDuration::Micros(10));
  SoftTimerFacility::FireInfo got{};
  facility_->ScheduleSoftEvent(40, [&](const SoftTimerFacility::FireInfo& info) { got = info; });
  AdvanceTo(SimDuration::Micros(73));
  facility_->OnTriggerState(TriggerSource::kIpOutput);
  EXPECT_EQ(got.scheduled_tick, 10u);
  EXPECT_EQ(got.delta_ticks, 40u);
  EXPECT_EQ(got.fired_tick, 73u);
  EXPECT_EQ(got.source, TriggerSource::kIpOutput);
  EXPECT_EQ(got.lateness_ticks(), 23u);
}

TEST_F(FacilityFixture, CookieRetireHookFiresOnDispatchAndCancel) {
  std::vector<uint64_t> retired;
  facility_->set_event_retired_hook(
      [](void* ctx, uint64_t cookie) {
        static_cast<std::vector<uint64_t>*>(ctx)->push_back(cookie);
      },
      &retired);
  int fired = 0;
  SoftEventId dispatched = facility_->ScheduleSoftEventWithCookie(
      10, [&](const SoftTimerFacility::FireInfo&) { ++fired; }, 0, 0xA1);
  SoftEventId cancelled = facility_->ScheduleSoftEventWithCookie(
      500, [&](const SoftTimerFacility::FireInfo&) { ++fired; }, 0, 0xB2);
  SoftEventId plain = facility_->ScheduleSoftEvent(
      500, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  ASSERT_TRUE(dispatched.valid());

  // Cancelling a cookie-carrying event retires its cookie (the leak the
  // sharded runtime's remote-id table depends on not having)...
  EXPECT_TRUE(facility_->CancelSoftEvent(cancelled));
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(retired[0], 0xB2u);
  // ...but only once: a stale cancel must not re-retire it.
  EXPECT_FALSE(facility_->CancelSoftEvent(cancelled));
  EXPECT_EQ(retired.size(), 1u);
  // Cookie-less events never reach the hook.
  EXPECT_TRUE(facility_->CancelSoftEvent(plain));
  EXPECT_EQ(retired.size(), 1u);

  // Dispatch retires too (pre-handler).
  AdvanceTo(SimDuration::Micros(20));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
  ASSERT_EQ(retired.size(), 2u);
  EXPECT_EQ(retired[1], 0xA1u);
}

TEST_F(FacilityFixture, StaleCancelAfterSlotReuseDoesNotRetireReusersCookie) {
  // The cancel-after-fire race window: the first event fired (its cookie was
  // retired) and an unrelated cookie-carrying event recycled its slab slot.
  // A stale cancel through the old id must retire nothing - CancelSoftEvent
  // reads the cookie via PeekUserData, which rejects stale ids, so the
  // reuser's cookie cannot be retired against a dead handle.
  std::vector<uint64_t> retired;
  facility_->set_event_retired_hook(
      [](void* ctx, uint64_t cookie) {
        static_cast<std::vector<uint64_t>*>(ctx)->push_back(cookie);
      },
      &retired);
  int fired = 0;
  SoftEventId a = facility_->ScheduleSoftEventWithCookie(
      10, [&](const SoftTimerFacility::FireInfo&) { ++fired; }, 0, 0xA1);
  AdvanceTo(SimDuration::Micros(20));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  ASSERT_EQ(fired, 1);
  ASSERT_EQ(retired, (std::vector<uint64_t>{0xA1}));
  // b very likely recycles a's slab slot.
  SoftEventId b = facility_->ScheduleSoftEventWithCookie(
      500, [&](const SoftTimerFacility::FireInfo&) { ++fired; }, 0, 0xB2);
  EXPECT_FALSE(facility_->CancelSoftEvent(a));
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xA1}));  // b's cookie untouched
  EXPECT_TRUE(facility_->CancelSoftEvent(b));
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xA1, 0xB2}));
}

TEST_F(FacilityFixture, HandlerCancellingDueBatchPeerRetiresCookieOnce) {
  // Two cookie events due in the same drain batch; the first one's handler
  // cancels the second before it fires. The peer's cookie must be retired
  // exactly once (by the cancel) and its handler must never run - the
  // retire-on-dispatch path in DispatchFired must not see it again.
  std::vector<uint64_t> retired;
  facility_->set_event_retired_hook(
      [](void* ctx, uint64_t cookie) {
        static_cast<std::vector<uint64_t>*>(ctx)->push_back(cookie);
      },
      &retired);
  int peer_fired = 0;
  SoftEventId peer{};
  bool cancel_ok = false;
  facility_->ScheduleSoftEventWithCookie(
      10,
      [&](const SoftTimerFacility::FireInfo&) {
        cancel_ok = facility_->CancelSoftEvent(peer);
      },
      0, 0xA1);
  peer = facility_->ScheduleSoftEventWithCookie(
      10, [&](const SoftTimerFacility::FireInfo&) { ++peer_fired; }, 0, 0xB2);
  AdvanceTo(SimDuration::Micros(20));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_TRUE(cancel_ok);
  EXPECT_EQ(peer_fired, 0);
  EXPECT_EQ(retired, (std::vector<uint64_t>{0xA1, 0xB2}));
  // And the peer's id stays dead: no double retire on a later stale cancel.
  EXPECT_FALSE(facility_->CancelSoftEvent(peer));
  EXPECT_EQ(retired.size(), 2u);
}

TEST_F(FacilityFixture, BackupInterruptCatchesOverdueEvents) {
  int fired = 0;
  facility_->ScheduleSoftEvent(10, [&](const SoftTimerFacility::FireInfo& info) {
    ++fired;
    EXPECT_EQ(info.source, TriggerSource::kBackupIntr);
  });
  // No trigger states at all; the host calls OnBackupInterrupt at 1 kHz.
  AdvanceTo(SimDuration::Millis(1));
  EXPECT_EQ(facility_->OnBackupInterrupt(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_F(FacilityFixture, CancelPreventsDispatch) {
  int fired = 0;
  SoftEventId id =
      facility_->ScheduleSoftEvent(5, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  EXPECT_TRUE(facility_->CancelSoftEvent(id));
  EXPECT_FALSE(facility_->CancelSoftEvent(id));
  AdvanceTo(SimDuration::Millis(2));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(facility_->stats().cancelled, 1u);
}

TEST_F(FacilityFixture, MultipleEventsDispatchInDeadlineOrder) {
  std::vector<int> order;
  facility_->ScheduleSoftEvent(30, [&](const SoftTimerFacility::FireInfo&) { order.push_back(30); });
  facility_->ScheduleSoftEvent(10, [&](const SoftTimerFacility::FireInfo&) { order.push_back(10); });
  facility_->ScheduleSoftEvent(20, [&](const SoftTimerFacility::FireInfo&) { order.push_back(20); });
  AdvanceTo(SimDuration::Micros(100));
  EXPECT_EQ(facility_->OnTriggerState(TriggerSource::kTrap), 3u);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
}

TEST_F(FacilityFixture, HandlerCanRescheduleItself) {
  int fires = 0;
  std::function<void(const SoftTimerFacility::FireInfo&)> handler =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < 5) {
          facility_->ScheduleSoftEvent(10, handler);
        }
      };
  facility_->ScheduleSoftEvent(10, handler);
  for (int t = 1; t <= 200; ++t) {
    AdvanceTo(SimDuration::Micros(t));
    facility_->OnTriggerState(TriggerSource::kSyscall);
  }
  EXPECT_EQ(fires, 5);
}

TEST_F(FacilityFixture, ZeroDeltaFiresAtNextTriggerStateOneTickLater) {
  int fired = 0;
  facility_->ScheduleSoftEvent(0, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  facility_->OnTriggerState(TriggerSource::kSyscall);  // same tick: too early
  EXPECT_EQ(fired, 0);
  AdvanceTo(SimDuration::Micros(1));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
}

TEST_F(FacilityFixture, LatenessClampsToZeroOnClockAnomaly) {
  // A stalled or backward-stepping measurement clock can stamp a dispatch
  // before the nominal due time; lateness must clamp instead of wrapping.
  SoftTimerFacility::FireInfo info{};
  info.scheduled_tick = 1000;
  info.delta_ticks = 50;
  info.fired_tick = 900;  // anomaly: fired "before" scheduled + T
  EXPECT_EQ(info.lateness_ticks(), 0u);
  info.fired_tick = 1050;  // exactly at the nominal due time
  EXPECT_EQ(info.lateness_ticks(), 0u);
  info.fired_tick = 1051;
  EXPECT_EQ(info.lateness_ticks(), 1u);
}

TEST_F(FacilityFixture, HandlerSelfCancelReturnsFalse) {
  bool cancel_result = true;
  SoftEventId id;
  id = facility_->ScheduleSoftEvent(10, [&](const SoftTimerFacility::FireInfo&) {
    // The event is already off the queue when its handler runs.
    cancel_result = facility_->CancelSoftEvent(id);
  });
  AdvanceTo(SimDuration::Micros(20));
  EXPECT_EQ(facility_->OnTriggerState(TriggerSource::kSyscall), 1u);
  EXPECT_FALSE(cancel_result);
  EXPECT_EQ(facility_->stats().cancelled, 0u);
}

TEST_F(FacilityFixture, HandlerCanCancelAnotherPendingEvent) {
  int other_fired = 0;
  bool cancel_result = false;
  SoftEventId other = facility_->ScheduleSoftEvent(
      50, [&](const SoftTimerFacility::FireInfo&) { ++other_fired; });
  facility_->ScheduleSoftEvent(10, [&](const SoftTimerFacility::FireInfo&) {
    cancel_result = facility_->CancelSoftEvent(other);
  });
  AdvanceTo(SimDuration::Micros(20));  // first due, `other` still pending
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_TRUE(cancel_result);
  AdvanceTo(SimDuration::Millis(2));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(other_fired, 0);
  EXPECT_EQ(facility_->stats().cancelled, 1u);
}

TEST_F(FacilityFixture, StatsAccounting) {
  facility_->ScheduleSoftEvent(1, [](const SoftTimerFacility::FireInfo&) {});
  facility_->ScheduleSoftEvent(1, [](const SoftTimerFacility::FireInfo&) {});
  AdvanceTo(SimDuration::Micros(5));
  facility_->OnTriggerState(TriggerSource::kIpIntr);
  facility_->OnTriggerState(TriggerSource::kIpIntr);
  const auto& s = facility_->stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.dispatches, 2u);
  EXPECT_EQ(s.checks, 2u);
  EXPECT_EQ(s.dispatches_by_source[static_cast<size_t>(TriggerSource::kIpIntr)], 2u);
  EXPECT_EQ(s.lateness_ticks.count(), 2u);
  // T < actual: every dispatch is at least the +1 rounding tick late, and
  // the histogram's percentiles never exceed its exact max.
  EXPECT_GE(s.lateness_ticks.min(), 1u);
  EXPECT_LE(s.lateness_ticks.Percentile(99), s.lateness_ticks.max());
}

TEST_F(FacilityFixture, DispatchObserverRunsBeforeHandler) {
  std::vector<int> order;
  facility_->set_dispatch_observer(
      [&](const SoftTimerFacility::FireInfo&) { order.push_back(1); });
  facility_->ScheduleSoftEvent(1, [&](const SoftTimerFacility::FireInfo&) { order.push_back(2); });
  AdvanceTo(SimDuration::Micros(5));
  facility_->OnTriggerState(TriggerSource::kSyscall);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(FacilityFixture, ScheduleObserverFires) {
  int notified = 0;
  facility_->set_schedule_observer([&] { ++notified; });
  facility_->ScheduleSoftEvent(10, [](const SoftTimerFacility::FireInfo&) {});
  EXPECT_EQ(notified, 1);
}

TEST_F(FacilityFixture, NextDeadlineTick) {
  EXPECT_FALSE(facility_->NextDeadlineTick().has_value());
  facility_->ScheduleSoftEvent(10, [](const SoftTimerFacility::FireInfo&) {});
  // Deadline = scheduled(0) + T(10) + 1.
  EXPECT_EQ(facility_->NextDeadlineTick(), 11u);
}

// --- Property: the paper's delay bound, randomized ------------------------

struct BoundParam {
  uint64_t seed;
};

// gtest prints a parameter into its ctest name; without this it would dump
// the struct's raw bytes.
void PrintTo(const BoundParam& p, std::ostream* os) { *os << "seed " << p.seed; }

class DelayBoundProperty : public ::testing::TestWithParam<BoundParam> {};

TEST_P(DelayBoundProperty, ActualFireTimeWithinPaperBound) {
  Simulator sim;
  SimClockSource clock(&sim, 1'000'000);
  SoftTimerFacility::Config cfg;
  cfg.interrupt_clock_hz = 1'000;
  SoftTimerFacility facility(&clock, cfg);
  Rng rng(GetParam().seed);

  const uint64_t x = facility.ticks_per_backup_interval();
  uint64_t checked = 0;

  // Random trigger states (bursty gaps up to ~200 us) with the backup
  // interrupt at exactly 1 ms boundaries.
  uint64_t next_backup_us = 1000;
  std::function<void()> backup = [&] {
    facility.OnBackupInterrupt();
    next_backup_us += 1000;
    sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(static_cast<double>(next_backup_us)),
                   backup);
  };
  sim.ScheduleAt(SimTime::Zero() + SimDuration::Micros(1000), backup);

  std::function<void()> triggers = [&] {
    facility.OnTriggerState(TriggerSource::kSyscall);
    sim.ScheduleAfter(rng.ExpDuration(SimDuration::Micros(40)), triggers);
  };
  sim.ScheduleAfter(SimDuration::Micros(1), triggers);

  // Random scheduling load, including delays beyond one backup interval.
  std::function<void()> scheduler = [&] {
    uint64_t t = rng.UniformU64(3000);
    uint64_t scheduled = facility.MeasureTime();
    facility.ScheduleSoftEvent(t, [&, t, scheduled](const SoftTimerFacility::FireInfo& info) {
      uint64_t actual = info.fired_tick - scheduled;
      EXPECT_GT(actual, t);
      EXPECT_LT(actual, t + x + 2);  // T + X + 1, plus one tick of backup jitter
      ++checked;
    });
    sim.ScheduleAfter(rng.ExpDuration(SimDuration::Micros(150)), scheduler);
  };
  sim.ScheduleAfter(SimDuration::Micros(3), scheduler);

  sim.RunUntil(SimTime::Zero() + SimDuration::Seconds(1));
  EXPECT_GT(checked, 5000u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DelayBoundProperty,
    ::testing::Values(BoundParam{1}, BoundParam{99}),
    [](const ::testing::TestParamInfo<BoundParam>& info) {
      return "heap_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace softtimer
