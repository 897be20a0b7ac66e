// ShardedRtHost behaviour: per-shard trigger loops, cross-core wakeups
// cutting through backup-bounded sleeps, pokes skipped when the command
// falls due after the sleeper's planned wake (and none skipped after a
// late wake), cross-core commands reaching a shard that spins to a near
// deadline, a sleeping shard's lateness record and its loop thread's
// timer slack, and the rule by which a parking shard leaves a queue
// deadline to a sibling. Real threads and wall-clock sleeps;
// bounds are loose for loaded CI machines. Runs under the `cross-thread`
// label / tsan preset.

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
  // A 10 ns backup period on a 1 GHz clock: every backup-bounded sleep ends
  // more than one backup period past its plan (the fence, the mutex and the
  // timed wait alone take longer), so the shard's first sleep starts a
  // late-wake hold, and each sleep after it publishes kUnplannedWake, which
  // makes a poke matter however far off its command falls due.
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.measure_hz = 1'000'000'000;
  cfg.interrupt_clock_hz = 100'000'000;
  ShardedRtHost host(cfg);
  host.Start();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool unplanned = false;
  while (!unplanned && std::chrono::steady_clock::now() < deadline) {
    unplanned = host.planned_wake_tick(0) == SleeperGate<>::kUnplannedWake;
    std::this_thread::yield();
  }
  host.Stop();
  EXPECT_TRUE(unplanned);
  EXPECT_GT(host.shard_loop_stats(0).late_wakes, 0u);
  EXPECT_TRUE(SleeperGate<>::WakeMatters(SleeperGate<>::kUnplannedWake,
                                         /*due_tick=*/UINT64_MAX - 1,
                                         host.clock().NowTicks(),
                                         /*horizon_ticks=*/0));
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
