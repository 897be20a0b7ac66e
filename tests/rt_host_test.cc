// Real-time host tests on a one-shard ShardedRtHost: the single-core case of
// the paper's mechanism. The real-thread tests check what needs threads and
// wall-clock sleeps (a wake delivered at a deadline, the spinning loop's
// software backup, no dispatch ever early) with loose bounds. How a sleeping
// shard waits is checked exactly instead: SteppedShard replays its idle
// steps on a manual clock through ShardedRtHost::PlanWait and JudgeWait.

#include "src/rt/sharded_rt_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

namespace softtimer {
namespace {

using Clock = std::chrono::steady_clock;

class ManualClock : public ClockSource {
 public:
  explicit ManualClock(uint64_t hz) : hz_(hz) {}
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return hz_; }
  void Set(uint64_t tick) { now_ = tick; }

 private:
  uint64_t hz_;
  uint64_t now_ = 0;
};

// A one-shard sleeping host's idle steps, replayed on a manual clock with a
// 1 ms backup period: each step plans its wait with ShardedRtHost::PlanWait,
// moves the clock to where the wait ends (plus `oversleep` past a sleep's
// plan) and checks the facility as SleepAndDispatch does, with the source
// ShardedRtHost::JudgeWait gives. A one-shard host without queue work has
// no queue deadline, and nothing here reads the planned tick a hold hides.
class SteppedShard {
 public:
  explicit SteppedShard(uint64_t measure_hz)
      : clock_(measure_hz),
        facility_(&clock_, SoftTimerFacility::Config{}),
        spin_horizon_ticks_(ShardedRtHost::kShardSpinHorizonNs * measure_hz /
                            1'000'000'000) {}

  SoftTimerFacility& facility() { return facility_; }
  uint64_t now() const { return clock_.NowTicks(); }

  // One idle step; returns the number of handlers its check fired.
  size_t Step(uint64_t oversleep = 0) {
    constexpr uint64_t kNever = ShardedSoftTimerRuntime::kNeverDue;
    uint64_t now = clock_.NowTicks();
    uint64_t backup_ticks = facility_.ticks_per_backup_interval();
    ShardedRtHost::WaitPlan plan = ShardedRtHost::PlanWait(
        now, facility_.NextDeadlineTick().value_or(kNever), backup_ticks,
        kNever, spin_horizon_ticks_, /*hold=*/false);
    if (plan.spin) {
      ++stats.spins;
      clock_.Set(std::max(now, plan.wake_tick));
      return facility_.OnTriggerState(TriggerSource::kIdleLoop);
    }
    ++stats.sleeps;
    clock_.Set(plan.wake_tick + oversleep);
    ShardedRtHost::WakeVerdict verdict = ShardedRtHost::JudgeWait(
        clock_.NowTicks(), plan.wake_tick, backup_ticks, plan.backup_bound);
    stats.late_wakes += verdict.late;
    stats.backup_checks += verdict.source == TriggerSource::kBackupIntr;
    return facility_.OnTriggerState(verdict.source);
  }

  ShardedRtHost::ShardLoopStats stats;

 private:
  ManualClock clock_;
  SoftTimerFacility facility_;
  uint64_t spin_horizon_ticks_;
};

// `isolated` picks the shard's idle step: spin (true) or sleep (false).
ShardedRtHost::Config OneShard(bool isolated) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.measure_hz = 1'000'000;      // 1 tick = 1 us
  cfg.interrupt_clock_hz = 1'000;  // 1 ms backup period
  cfg.shard_profiles.resize(1);
  cfg.shard_profiles[0].isolated = isolated;
  return cfg;
}

int64_t MicrosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

// Polls `done` until it holds or `limit` elapses.
void WaitFor(const std::atomic<bool>& done, std::chrono::milliseconds limit) {
  auto deadline = Clock::now() + limit;
  while (!done.load(std::memory_order_acquire) && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

TEST(MonotonicClockSourceTest, TicksAdvanceWithWallTime) {
  MonotonicClockSource clock(1'000'000);
  uint64_t t0 = clock.NowTicks();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uint64_t t1 = clock.NowTicks();
  EXPECT_GE(t1 - t0, 2'000u);   // at least 2 ms of 1 us ticks
  EXPECT_LT(t1 - t0, 500'000u);  // and not absurdly more
}

TEST(MonotonicClockSourceTest, UntilTickIsZeroForPast) {
  MonotonicClockSource clock(1'000'000);
  EXPECT_EQ(clock.UntilTick(0).count(), 0);
  uint64_t future = clock.NowTicks() + 10'000;
  auto wait = clock.UntilTick(future);
  EXPECT_GT(wait.count(), 5'000'000);   // > 5 ms
  EXPECT_LE(wait.count(), 10'100'000);  // <= ~10 ms
}

TEST(RtHostTest, EventFiresFromApplicationPolls) {
  // A busy event loop: a spinning shard never sleeps, and shard_tick is the
  // application work the loop runs between trigger-state checks.
  ShardedRtHost::Config cfg = OneShard(/*isolated=*/true);
  uint64_t work_items = 0;  // loop thread only; read after Stop()
  cfg.shard_tick = [&](size_t) { ++work_items; };
  ShardedRtHost host(cfg);
  std::atomic<bool> fired{false};
  auto start = Clock::now();
  host.runtime().ScheduleOnShard(
      0, 500,  // 500 us
      [&](const SoftTimerFacility::FireInfo&) {
        fired.store(true, std::memory_order_release);
      });
  host.Start();
  WaitFor(fired, std::chrono::milliseconds(200));
  int64_t elapsed_us = MicrosSince(start);
  host.Stop();
  EXPECT_TRUE(fired.load());
  EXPECT_GE(elapsed_us, 500);
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_EQ(loop.sleeps, 0u);
  EXPECT_GT(loop.polls, 0u);
  EXPECT_GT(work_items, 0u);
}

TEST(RtHostTest, SpinningLoopRunsTheBackupWithNothingScheduled) {
  // A spinning shard never sleeps, yet its software backup still fires:
  // with nothing scheduled and a 1 ms period, about 20 backup checks in
  // 20 ms.
  ShardedRtHost host(OneShard(/*isolated=*/true));
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  host.Stop();
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_GT(loop.backup_checks, 0u);
  EXPECT_EQ(loop.sleeps, 0u);
}

TEST(RtHostTest, SleepAndDispatchHonorsDeadline) {
  ShardedRtHost::Config cfg = OneShard(/*isolated=*/false);
  std::atomic<bool> fired{false};
  ShardedRtHost* self = nullptr;  // set before Start(), read on the loop
  bool armed = false;             // loop thread only
  // Armed on the loop thread, between its first trigger check and its
  // first sleep decision, so the loop always parks before the timer can
  // fire: however late the thread starts or stalls, no check runs in
  // between that could dispatch the timer (and let Stop() win) first.
  cfg.shard_tick = [&](size_t shard) {
    if (armed) {
      return;
    }
    armed = true;
    self->runtime().ScheduleOnShard(
        shard, 1'000, [&](const SoftTimerFacility::FireInfo&) {
          fired.store(true, std::memory_order_release);
        });
  };
  ShardedRtHost host(cfg);
  self = &host;
  auto start = Clock::now();
  host.Start();
  WaitFor(fired, std::chrono::milliseconds(500));
  int64_t elapsed_us = MicrosSince(start);
  host.Stop();
  EXPECT_TRUE(fired.load());
  EXPECT_GE(elapsed_us, 1'000);
  // Generous bound: scheduler jitter, but nowhere near the 500 ms cap.
  EXPECT_LT(elapsed_us, 300'000);
  EXPECT_GT(host.shard_loop_stats(0).sleeps, 0u);
}

TEST(RtHostTest, SleepWithoutEventsBoundsAtBackupPeriod) {
  // With nothing scheduled every wait sleeps to the backup bound, exactly
  // one period, and ends in a backup check.
  SteppedShard shard(1'000'000);
  for (int step = 0; step < 50; ++step) {
    shard.Step();
  }
  EXPECT_EQ(shard.now(), 50u * 1'000);
  EXPECT_EQ(shard.stats.sleeps, 50u);
  EXPECT_EQ(shard.stats.backup_checks, 50u);
  EXPECT_EQ(shard.stats.spins, 0u);
}

TEST(RtHostTest, RunForDispatchesPeriodicWork) {
  // A self-re-arming 1 ms timer, one backup period X: each wait first sleeps
  // to the backup bound, since the deadline (T + 1 from the re-arm) lies one
  // tick past it, then spins that tick. So the timer fires every T + 1
  // ticks, one tick late, and 30 ms hold 29 fires.
  SteppedShard shard(1'000'000);
  SoftTimerFacility& facility = shard.facility();
  std::vector<uint64_t> fired_ticks;
  std::function<void(const SoftTimerFacility::FireInfo&)> periodic =
      [&](const SoftTimerFacility::FireInfo& info) {
        fired_ticks.push_back(info.fired_tick);
        EXPECT_EQ(info.lateness_ticks(), 1u);
        facility.ScheduleSoftEvent(1'000, periodic);
      };
  facility.ScheduleSoftEvent(1'000, periodic);
  while (shard.now() < 30'000) {
    shard.Step();
  }
  ASSERT_EQ(fired_ticks.size(), 29u);
  for (size_t i = 0; i < fired_ticks.size(); ++i) {
    EXPECT_EQ(fired_ticks[i], (i + 1) * 1'001) << i;
  }
  // The 30th sleep carries the clock past 30 ms.
  EXPECT_EQ(shard.stats.sleeps, 30u);
  EXPECT_EQ(shard.stats.backup_checks, 30u);
  EXPECT_EQ(shard.stats.spins, 29u);
}

TEST(RtHostTest, WaitsInsideTheSpinHorizonNeverSleep) {
  // A self-re-arming chain of 2 us timers at 1 GHz: every wait ends at a
  // deadline inside the spin horizon, so the sleeping shard spins through
  // each one and never sleeps.
  constexpr int kFires = 200;
  SteppedShard shard(1'000'000'000);
  SoftTimerFacility& facility = shard.facility();
  int fires = 0;
  std::function<void(const SoftTimerFacility::FireInfo&)> chain =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < kFires) {
          facility.ScheduleSoftEvent(2'000, chain);  // 2 us
        }
      };
  facility.ScheduleSoftEvent(2'000, chain);
  while (fires < kFires) {
    ASSERT_EQ(shard.Step(), 1u);
  }
  EXPECT_EQ(shard.stats.sleeps, 0u);
  EXPECT_EQ(shard.stats.spins, static_cast<uint64_t>(kFires));
}

TEST(RtHostTest, WaitsPastTheSpinHorizonStillSleep) {
  // A chain of 200 us timers at 1 GHz: every wait is deadline-bound but far
  // past the spin horizon, so each fire follows a sleep and nothing spins.
  constexpr int kFires = 20;
  SteppedShard shard(1'000'000'000);
  SoftTimerFacility& facility = shard.facility();
  int fires = 0;
  std::function<void(const SoftTimerFacility::FireInfo&)> chain =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < kFires) {
          facility.ScheduleSoftEvent(200'000, chain);  // 200 us
        }
      };
  facility.ScheduleSoftEvent(200'000, chain);
  while (fires < kFires) {
    ASSERT_EQ(shard.Step(), 1u);
  }
  EXPECT_EQ(shard.stats.spins, 0u);
  EXPECT_EQ(shard.stats.sleeps, static_cast<uint64_t>(kFires));
  EXPECT_EQ(shard.stats.backup_checks, 0u);
}

TEST(RtHostTest, LatenessStaysWithinPaperBoundUnderSleepLoop) {
  // On real threads: every dispatch of a sleeping loop is late by at least
  // the rounding tick (T < actual), and the histogram counts each fire.
  // How late it may be is the stepped test below: it depends on how
  // promptly the OS wakes the thread, not on the loop.
  ShardedRtHost host(OneShard(/*isolated=*/false));
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  int fires = 0;  // loop thread only; read after Stop()
  std::function<void(const SoftTimerFacility::FireInfo&)> handler =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < 20) {
          facility.ScheduleSoftEvent(700, handler);
        }
      };
  facility.ScheduleSoftEvent(700, handler);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  host.Stop();
  const LatencyHistogram& lateness = host.shard_lateness_raw(0);
  ASSERT_GE(lateness.count(), 10u);
  EXPECT_EQ(lateness.count(), static_cast<uint64_t>(fires));
  EXPECT_GE(lateness.min(), 1u);
}

TEST(RtHostTest, SteppedLatenessMeetsThePaperBoundUntilAWakeIsLate) {
  // A chain of 700 us timers (X = 1,000 ticks) whose every sleep ends
  // `oversleep` ticks past its plan: each dispatch is late by exactly
  // 1 + oversleep. So a wake at most X past its plan keeps the paper's
  // T < actual <= T + X + 1, and one past that, the first to break it, is
  // the late wake that starts a late-wake hold.
  for (uint64_t oversleep : {0u, 20u, 999u, 1'000u, 1'001u}) {
    SteppedShard shard(1'000'000);
    SoftTimerFacility& facility = shard.facility();
    int fires = 0;
    std::function<void(const SoftTimerFacility::FireInfo&)> chain =
        [&](const SoftTimerFacility::FireInfo&) {
          if (++fires < 20) {
            facility.ScheduleSoftEvent(700, chain);
          }
        };
    facility.ScheduleSoftEvent(700, chain);
    while (fires < 20) {
      ASSERT_EQ(shard.Step(oversleep), 1u) << "oversleep " << oversleep;
    }
    const LatencyHistogram& lateness = facility.stats().lateness_ticks;
    EXPECT_EQ(lateness.count(), 20u) << "oversleep " << oversleep;
    EXPECT_EQ(lateness.min(), 1 + oversleep) << "oversleep " << oversleep;
    EXPECT_EQ(lateness.max(), 1 + oversleep) << "oversleep " << oversleep;
    EXPECT_EQ(shard.stats.late_wakes, oversleep > 1'000 ? 20u : 0u)
        << "oversleep " << oversleep;
  }
}

}  // namespace
}  // namespace softtimer
