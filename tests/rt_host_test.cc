// Real-time host tests on a one-shard ShardedRtHost: the single-core case of
// the paper's mechanism on wall-clock time. These use actual wall-clock
// sleeps; delays are kept in the hundreds-of-microseconds range and
// assertions are loose upper bounds so the suite stays robust on loaded
// machines. The spin-horizon cases count spins and sleeps instead, which
// depend on how far away each wait's deadline is, not on how long it takes.

#include "src/rt/sharded_rt_host.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

namespace softtimer {
namespace {

using Clock = std::chrono::steady_clock;

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

// A sleeping shard on a 1 GHz measure clock, where the spin horizon is
// kShardSpinHorizonNs ticks.
ShardedRtHost::Config OneSleepingShardAtOneGhz() {
  ShardedRtHost::Config cfg = OneShard(/*isolated=*/false);
  cfg.measure_hz = 1'000'000'000;
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
  ShardedRtHost host(OneShard(/*isolated=*/false));
  auto start = Clock::now();
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  host.Stop();
  int64_t elapsed_us = MicrosSince(start);
  // With nothing scheduled every sleep runs to the 1 ms backup bound: at
  // least one backup check happened, and no sleep ended much short of a
  // full period (at most one backup check per 900 us).
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_GE(loop.backup_checks, 1u);
  EXPECT_LE(loop.backup_checks, static_cast<uint64_t>(elapsed_us / 900 + 1));
  EXPECT_GE(loop.sleeps, loop.backup_checks);
}

TEST(RtHostTest, RunForDispatchesPeriodicWork) {
  ShardedRtHost host(OneShard(/*isolated=*/false));
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  std::atomic<int> fires{0};
  // Handlers run on the shard's loop thread, which owns the facility.
  std::function<void(const SoftTimerFacility::FireInfo&)> periodic =
      [&](const SoftTimerFacility::FireInfo&) {
        fires.fetch_add(1, std::memory_order_relaxed);
        facility.ScheduleSoftEvent(1'000, periodic);  // every ~1 ms
      };
  facility.ScheduleSoftEvent(1'000, periodic);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  host.Stop();
  // ~30 fires expected; accept a broad band for loaded CI machines.
  EXPECT_GE(fires.load(), 10);
  EXPECT_LE(fires.load(), 40);
}

TEST(RtHostTest, WaitsInsideTheSpinHorizonNeverSleep) {
  // A self-re-arming chain of 2 us timers: every wait ends at a deadline
  // inside the spin horizon, so the sleeping shard spins through each one.
  // A loop that stalls finds the next timer already due, and a wait that is
  // already over spins too (for no time), so no wait ever sleeps.
  constexpr int kFires = 200;
  ShardedRtHost host(OneSleepingShardAtOneGhz());
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  int fires = 0;  // loop thread only
  ShardedRtHost::ShardLoopStats at_last_fire;  // written by the last handler
  std::atomic<bool> done{false};
  std::function<void(const SoftTimerFacility::FireInfo&)> chain =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < kFires) {
          facility.ScheduleSoftEvent(2'000, chain);  // 2 us
          return;
        }
        at_last_fire = host.shard_loop_stats(0);
        done.store(true, std::memory_order_release);
      };
  facility.ScheduleSoftEvent(2'000, chain);
  host.Start();
  WaitFor(done, std::chrono::milliseconds(10'000));
  host.Stop();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(at_last_fire.sleeps, 0u);
  EXPECT_GT(at_last_fire.spins, 0u);
}

TEST(RtHostTest, WaitsPastTheSpinHorizonStillSleep) {
  // A chain of 200 us timers: every wait is deadline-bound but far past the
  // spin horizon, so each fire follows a sleep and nothing spins. Armed on
  // the loop thread, so a slow thread start cannot eat into the first wait,
  // and into a facility whose storage is already built, so a first
  // schedule's allocation (slow under a sanitizer) cannot either.
  constexpr int kFires = 20;
  ShardedRtHost::Config cfg = OneSleepingShardAtOneGhz();
  ShardedRtHost* self = nullptr;  // set before Start(), read on the loop
  bool armed = false;             // loop thread only
  int fires = 0;                  // loop thread only; read after Stop()
  std::atomic<bool> done{false};
  std::function<void(const SoftTimerFacility::FireInfo&)> chain =
      [&](const SoftTimerFacility::FireInfo&) {
        if (++fires < kFires) {
          self->runtime().ScheduleOnShard(0, 200'000, chain);  // 200 us
        } else {
          done.store(true, std::memory_order_release);
        }
      };
  cfg.shard_tick = [&](size_t shard) {
    if (!armed) {
      armed = true;
      self->runtime().ScheduleOnShard(shard, 200'000, chain);
    }
  };
  ShardedRtHost host(cfg);
  self = &host;
  host.runtime().CancelOnShard(
      0, host.runtime().ScheduleOnShard(
             0, 1, [](const SoftTimerFacility::FireInfo&) {}));
  host.Start();
  WaitFor(done, std::chrono::milliseconds(10'000));
  host.Stop();
  ASSERT_TRUE(done.load());
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_EQ(loop.spins, 0u);
  EXPECT_GE(loop.sleeps, static_cast<uint64_t>(fires - 1));
}

TEST(RtHostTest, LatenessStaysWithinPaperBoundUnderSleepLoop) {
  ShardedRtHost host(OneShard(/*isolated=*/false));
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  uint64_t x = facility.ticks_per_backup_interval();
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
  // T < actual: lateness >= 1 always. The upper bound holds as long as the
  // OS wakes us near the requested time; allow generous scheduler slop for
  // loaded CI machines.
  EXPECT_GE(lateness.min(), 1u);
  EXPECT_LT(lateness.max(), 6 * x);
}

}  // namespace
}  // namespace softtimer
