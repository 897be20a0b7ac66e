// ShardedRtHost behaviour: per-shard trigger loops, cross-core wakeups
// cutting through backup-bounded sleeps, pokes skipped when the command
// falls due after the sleeper's planned wake, cross-core commands reaching
// a shard that spins to a near deadline, a sleeping shard's lateness record
// and its loop thread's timer slack. Real threads and wall-clock sleeps;
// bounds are loose for loaded CI machines. Runs under the `cross-thread`
// label / tsan preset. The sleeping shard's wait decisions (PlanWait,
// JudgeWait), the late-wake hold's published tick and the rule by which a
// parking shard leaves a queue deadline to a sibling are pure functions of
// ticks, checked row by row with no thread and no clock.

#include "src/rt/sharded_rt_host.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

namespace softtimer {
namespace {

TEST(ShardedRtHostTest, StartStopIsIdempotentAndJoins) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 3;
  ShardedRtHost host(cfg);
  EXPECT_FALSE(host.running());
  host.Start();
  host.Start();  // no-op
  EXPECT_TRUE(host.running());
  host.Stop();
  host.Stop();  // no-op
  EXPECT_FALSE(host.running());
  // Restartable.
  host.Start();
  EXPECT_TRUE(host.running());
}  // dtor stops again

TEST(ShardedRtHostTest, CrossCoreEventFiresWhileShardsSleep) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 100;  // 10 ms backup: a wakeup must beat this
  ShardedRtHost host(cfg);
  host.Start();
  // Let the loops reach their sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto token = host.RegisterProducer();
  std::atomic<uint64_t> fired_tick{0};
  uint64_t t0 = host.clock().NowTicks();
  host.runtime().ScheduleCrossCore(
      token, 1, 200 /* 200 us */,
      [&](const SoftTimerFacility::FireInfo& info) {
        fired_tick.store(info.fired_tick, std::memory_order_relaxed);
      });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired_tick.load(std::memory_order_relaxed) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  ASSERT_NE(fired_tick.load(), 0u);
  EXPECT_GE(fired_tick.load() - t0, 200u);  // T < actual
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(1);
  EXPECT_GT(loop.polls, 0u);
}

TEST(ShardedRtHostTest, SleeperIsPokedOnlyForCommandsDueBeforeItsPlannedWake) {
  // One shard parked on a local timer 100 ms out, with a 1 s backup period:
  // its sleep ends at the timer, so its sleeper gate carries that tick. A
  // cross-core schedule due 20 ms after it gets no notify - the shard's own
  // wake drains it before it falls due - while one due 1 ms from now, long
  // before the planned wake, is notified. Both fire exactly once, never
  // early. The margins are milliseconds and no assertion times anything.
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.interrupt_clock_hz = 1;
  ShardedRtHost* self = nullptr;  // set before Start(), read on the loop
  cfg.shard_setup = [&self](size_t shard) {
    self->runtime().ScheduleOnShard(shard, 100'000 /* 100 ms */,
                                    [](const SoftTimerFacility::FireInfo&) {});
  };
  ShardedRtHost host(cfg);
  self = &host;
  auto token = host.RegisterProducer();
  host.Start();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t planned = 0;
  while ((planned = host.planned_wake_tick(0)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_NE(planned, 0u);
  uint64_t now = host.clock().NowTicks();
  ASSERT_GT(planned, now + 20'000);  // the wake is still 20+ ms away

  // Loop-thread writes, read after Stop().
  std::array<int, 2> fires{};
  std::array<uint64_t, 2> lateness{};
  std::atomic<int> fired{0};
  auto record = [&](size_t which) {
    return [&, which](const SoftTimerFacility::FireInfo& info) {
      ++fires[which];
      lateness[which] = info.lateness_ticks();
      fired.fetch_add(1, std::memory_order_release);
    };
  };
  host.runtime().ScheduleCrossCore(token, 0, planned - now + 20'000,
                                   record(0));
  host.runtime().ScheduleCrossCore(token, 0, 1'000, record(1));
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load(std::memory_order_acquire) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  ShardedRtHost::ShardLoopStats loop = host.shard_loop_stats(0);
  EXPECT_EQ(loop.wakeups_suppressed, 1u);  // the schedule due after the wake
  EXPECT_EQ(loop.wakeups, 1u);             // the one due before it
  for (size_t which = 0; which < 2; ++which) {
    EXPECT_EQ(fires[which], 1) << which;
    EXPECT_GE(lateness[which], 1u) << which;  // T < actual
  }
}

TEST(ShardedRtHostTest, LateWakePublishesNoPlanSoEveryPokeMatters) {
  // A sleep that ends more than one backup period past its plan is late,
  // which starts a hold. A wait planned during the hold publishes
  // kUnplannedWake, which makes a poke matter however far off its command
  // falls due.
  constexpr uint64_t kX = 1'000;
  constexpr uint64_t kWake = 50'000;
  EXPECT_FALSE(ShardedRtHost::JudgeWait(kWake + kX, kWake, kX, true).late);
  ASSERT_TRUE(ShardedRtHost::JudgeWait(kWake + kX + 1, kWake, kX, true).late);
  uint64_t now = kWake + kX + 1;
  ShardedRtHost::WaitPlan plan = ShardedRtHost::PlanWait(
      now, now + 400, kX, ShardedSoftTimerRuntime::kNeverDue, 5,
      /*hold=*/true);
  EXPECT_EQ(plan.wake_tick, now + 400);
  EXPECT_EQ(plan.published_tick, SleeperGate<>::kUnplannedWake);
  EXPECT_TRUE(SleeperGate<>::WakeMatters(plan.published_tick,
                                         /*due_tick=*/UINT64_MAX - 1, now,
                                         /*horizon_ticks=*/0));
}

TEST(ShardedRtHostTest, PlanWaitRows) {
  // Each row plans one wait at kNow with spin horizon kH: the own deadline,
  // the queue gate's deadline, the backup period and whether a late-wake
  // hold is on, against the plan SleepAndDispatch follows.
  constexpr uint64_t kNow = 10'000;
  constexpr uint64_t kH = 5;
  constexpr uint64_t kNever = ShardedSoftTimerRuntime::kNeverDue;
  constexpr uint64_t kUnplanned = SleeperGate<>::kUnplannedWake;
  struct Row {
    const char* what;
    uint64_t next_deadline;
    uint64_t queue_due;
    uint64_t backup_ticks;
    bool hold;
    uint64_t wake_tick;
    uint64_t published_tick;
    bool backup_bound;
    bool queue_first;
    bool spin;
  };
  const Row rows[] = {
      {"nothing due", kNever, kNever, 1'000, false,
       kNow + 1'000, kNow + 1'000, true, false, false},
      {"own deadline at now + X", kNow + 1'000, kNever, 1'000, false,
       kNow + 1'000, kNow + 1'000, true, false, false},
      {"own deadline before now + X", kNow + 999, kNever, 1'000, false,
       kNow + 999, kNow + 999, false, false, false},
      {"own deadline at now + H", kNow + kH, kNever, 1'000, false,
       kNow + kH, kNow + kH, false, false, true},
      {"own deadline at now + H + 1", kNow + kH + 1, kNever, 1'000, false,
       kNow + kH + 1, kNow + kH + 1, false, false, false},
      {"own deadline already past", kNow - 7, kNever, 1'000, false,
       kNow - 7, kNow - 7, false, false, true},
      {"queue deadline inside H", kNever, kNow + kH, 1'000, false,
       kNow + kH, kNow + kH, true, true, true},
      {"queue deadline inside H, own one past it", kNow + 300, kNow + 2,
       1'000, false, kNow + 2, kNow + 2, false, true, true},
      {"queue deadline past H", kNever, kNow + kH + 1, 1'000, false,
       kNow + 1'000, kNow + 1'000, true, true, false},
      {"queue deadline past H, before own deadline", kNow + 300, kNow + 200,
       1'000, false, kNow + 300, kNow + 300, false, true, false},
      {"queue deadline at own deadline", kNow + 300, kNow + 300, 1'000, false,
       kNow + 300, kNow + 300, false, false, false},
      {"backup-bound with X <= H", kNever, kNever, 3, false,
       kNow + 3, kNow + 3, true, false, false},
      {"own deadline at now + X <= H", kNow + 3, kNever, 3, false,
       kNow + 3, kNow + 3, true, false, false},
      {"hold, own deadline", kNow + 300, kNever, 1'000, true,
       kNow + 300, kUnplanned, false, false, false},
      {"hold, nothing due", kNever, kNever, 1'000, true,
       kNow + 1'000, kUnplanned, true, false, false},
      {"hold, queue deadline past H", kNever, kNow + 200, 1'000, true,
       kNow + 1'000, kUnplanned, true, true, false},
  };
  for (const Row& row : rows) {
    ShardedRtHost::WaitPlan plan =
        ShardedRtHost::PlanWait(kNow, row.next_deadline, row.backup_ticks,
                                row.queue_due, kH, row.hold);
    EXPECT_EQ(plan.wake_tick, row.wake_tick) << row.what;
    EXPECT_EQ(plan.published_tick, row.published_tick) << row.what;
    EXPECT_EQ(plan.backup_bound, row.backup_bound) << row.what;
    EXPECT_EQ(plan.queue_first, row.queue_first) << row.what;
    EXPECT_EQ(plan.spin, row.spin) << row.what;
  }
}

TEST(ShardedRtHostTest, JudgeWaitRows) {
  // Each row ends a sleep planned for kWake at `woke`: whether the wake is
  // late (more than one backup period past the plan) and which source the
  // check after it carries.
  constexpr uint64_t kWake = 10'000;
  constexpr uint64_t kX = 1'000;
  struct Row {
    const char* what;
    uint64_t woke;
    bool backup_bound;
    bool late;
    TriggerSource source;
  };
  const Row rows[] = {
      {"deadline wake on time", kWake, false, false, TriggerSource::kIdleLoop},
      {"deadline wake X past", kWake + kX, false, false,
       TriggerSource::kIdleLoop},
      {"deadline wake X + 1 past", kWake + kX + 1, false, true,
       TriggerSource::kIdleLoop},
      {"backup wake on time", kWake, true, false, TriggerSource::kBackupIntr},
      {"backup wake X past", kWake + kX, true, false,
       TriggerSource::kBackupIntr},
      {"backup wake X + 1 past", kWake + kX + 1, true, true,
       TriggerSource::kBackupIntr},
      {"backup wait poked early", kWake - 1, true, false,
       TriggerSource::kIdleLoop},
      {"deadline wait poked early", kWake - 400, false, false,
       TriggerSource::kIdleLoop},
  };
  for (const Row& row : rows) {
    ShardedRtHost::WakeVerdict verdict =
        ShardedRtHost::JudgeWait(row.woke, kWake, kX, row.backup_bound);
    EXPECT_EQ(verdict.late, row.late) << row.what;
    EXPECT_EQ(verdict.source, row.source) << row.what;
  }
}

TEST(SleeperGateTest, SiblingCoversADeadlineOnlyAwakeOrWithAPlanByIt) {
  // A parking shard leaves a queue deadline at tick 100 to a sibling whose
  // gate reads 0 (awake: it polls on its next iteration) or a real plan at
  // or before the deadline. kUnplannedWake says nothing about when the
  // sibling wakes, so it covers nothing.
  constexpr uint64_t kDue = 100;
  struct Row {
    uint64_t planned;
    bool covers;
  };
  for (const Row& row : {Row{0, true},
                         Row{SleeperGate<>::kUnplannedWake, false},
                         Row{2, true},
                         Row{kDue, true},
                         Row{kDue + 1, false},
                         Row{UINT64_MAX, false}}) {
    EXPECT_EQ(SleeperGate<>::Covers(row.planned, kDue), row.covers)
        << "planned " << row.planned;
  }
  EXPECT_FALSE(
      SleeperGate<>::Covers(SleeperGate<>::kUnplannedWake, UINT64_MAX));
}

TEST(ShardedRtHostTest, CrossCoreCommandReachesASpinningShardWithoutANotify) {
  // A local chain of 2 us timers keeps shard 0 spinning: every wait ends at
  // a deadline inside the spin horizon, so the shard never raises its
  // sleeper gate. Cross-core schedules from this thread then reach it
  // through the pending flag alone - no producer finds a sleeper to notify -
  // and each fires exactly once, never early.
  constexpr size_t kRemote = 64;
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.measure_hz = 1'000'000'000;
  ShardedRtHost* self = nullptr;  // set before Start(), read on the loop
  // Loop-thread state, read after Stop().
  bool armed = false;
  size_t remote_fired = 0;
  std::array<int, kRemote> fire_count{};
  uint64_t min_lateness = UINT64_MAX;
  ShardedRtHost::ShardLoopStats at_last_fire;
  std::atomic<bool> chain_running{false};
  std::atomic<bool> done{false};
  std::function<void(const SoftTimerFacility::FireInfo&)> chain =
      [&](const SoftTimerFacility::FireInfo&) {
        chain_running.store(true, std::memory_order_release);
        if (remote_fired < kRemote) {
          self->runtime().ScheduleOnShard(0, 2'000, chain);  // 2 us
        }
      };
  cfg.shard_tick = [&](size_t shard) {
    if (!armed) {
      armed = true;
      self->runtime().ScheduleOnShard(shard, 2'000, chain);
    }
  };
  ShardedRtHost host(cfg);
  self = &host;
  auto token = host.RegisterProducer();
  host.Start();
  auto wait_for = [](const std::atomic<bool>& flag) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!flag.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  wait_for(chain_running);
  for (size_t i = 0; i < kRemote; ++i) {
    host.runtime().ScheduleCrossCore(
        token, 0, 20'000 /* 20 us */,
        [&, i](const SoftTimerFacility::FireInfo& info) {
          ++fire_count[i];
          min_lateness = std::min(min_lateness, info.lateness_ticks());
          if (++remote_fired == kRemote) {
            at_last_fire = host.shard_loop_stats(0);
            done.store(true, std::memory_order_release);
          }
        });
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  wait_for(done);
  host.Stop();
  ASSERT_TRUE(done.load());
  EXPECT_EQ(at_last_fire.wakeups, 0u);
  EXPECT_EQ(at_last_fire.sleeps, 0u);
  for (int count : fire_count) {
    EXPECT_EQ(count, 1);
  }
  EXPECT_GE(min_lateness, 1u);  // T < actual
}

TEST(ShardedRtHostTest, NormalShardLatenessIsTheFacilityHistogram) {
  // Quiesced (never Start()ed) host driven by hand: a sleeping shard without
  // an SLO carries no lateness probe, so its raw and clean histograms are the
  // facility's own record and count exactly its dispatches.
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  ShardedRtHost host(cfg);
  int fired = 0;
  for (uint64_t delay : {0, 10, 100}) {
    host.runtime().ScheduleOnShard(
        1, delay, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired < 3 && std::chrono::steady_clock::now() < deadline) {
    host.runtime().OnTriggerState(1, TriggerSource::kSyscall);
  }
  ASSERT_EQ(fired, 3);
  uint64_t dispatches = host.runtime().shard_facility(1).stats().dispatches;
  EXPECT_EQ(dispatches, 3u);
  EXPECT_EQ(host.shard_lateness_raw(1).count(), dispatches);
  EXPECT_EQ(host.shard_lateness_clean(1).count(), dispatches);
  EXPECT_GE(host.shard_lateness_raw(1).min(), 1u);  // T < actual
  EXPECT_EQ(host.shard_lateness_raw(0).count(), 0u);
}

TEST(ShardedRtHostTest, NormalShardThreadUsesFixedTimerSlack) {
#if defined(__linux__)
  // The slack is per thread, so read it on each loop thread: shard_setup
  // runs there, after the loop has set it (the OS default is 50 us).
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  std::array<int, 2> slack_ns{};
  cfg.shard_setup = [&slack_ns](size_t shard) {
    slack_ns[shard] = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  };
  ShardedRtHost host(cfg);
  host.Start();
  host.Stop();  // joins both loop threads, so both hooks have run
  for (int slack : slack_ns) {
    EXPECT_EQ(slack, static_cast<int>(ShardedRtHost::kShardTimerSlackNs));
  }
#else
  GTEST_SKIP() << "timer slack is a Linux prctl";
#endif
}

}  // namespace
}  // namespace softtimer
