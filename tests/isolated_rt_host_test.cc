// Spinning ("isolated") ShardedRtHost shards (DESIGN.md section 14): a
// spinning shard beside a sleeping one, cross-core scheduling onto the
// spinner from a producer thread, shutdown while the spin is in flight, the
// compensated software-backup contract, and the lateness histograms fed by
// the facility. Real threads and wall-clock sleeps;
// bounds are loose for loaded CI machines. Runs under the `cross-thread`
// and `isolated` labels / tsan preset.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/rt/sharded_rt_host.h"

namespace softtimer {
namespace {

ShardedRtHost::Config MixedConfig() {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.measure_hz = 1'000'000;      // 1 tick = 1 us
  cfg.interrupt_clock_hz = 1'000;  // 1 ms backup period
  cfg.shard_profiles.resize(2);
  cfg.shard_profiles[0].isolated = true;
  return cfg;  // shard 1 sleeps
}

TEST(IsolatedRtHostTest, MixedProfileHostFiresOnBothShards) {
  ShardedRtHost host(MixedConfig());
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto token = host.RegisterProducer();
  std::atomic<int> fired{0};
  for (size_t shard = 0; shard < 2; ++shard) {
    host.runtime().ScheduleCrossCore(
        token, shard, 500 /* 500 us */,
        [&](const SoftTimerFacility::FireInfo&) {
          fired.fetch_add(1, std::memory_order_relaxed);
        });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fired.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  host.Stop();
  EXPECT_EQ(fired.load(), 2);
  // The spinner never parked on its eventcount; the sleeping shard slept.
  ShardedRtHost::ShardLoopStats iso_loop = host.shard_loop_stats(0);
  ShardedRtHost::ShardLoopStats sleeping_loop = host.shard_loop_stats(1);
  EXPECT_EQ(iso_loop.sleeps, 0u);
  EXPECT_GT(iso_loop.polls, 0u);
  EXPECT_GT(sleeping_loop.sleeps, 0u);
  // Both dispatches landed in their shard's raw histogram; on the sleeping
  // shard clean is raw.
  EXPECT_EQ(host.shard_lateness_raw(0).count(), 1u);
  EXPECT_EQ(host.shard_lateness_raw(1).count(), 1u);
  EXPECT_EQ(host.shard_lateness_clean(1).count(), 1u);
  // The spinning shard calibrated itself; the sleeping shard reports no
  // spin-step state.
  EXPECT_GT(host.isolated_shard_stats(0).steal_threshold_ticks, 0u);
  EXPECT_EQ(host.isolated_shard_stats(1).steal_threshold_ticks, 0u);
}

TEST(IsolatedRtHostTest, CrossCoreScheduleOntoIsolatedShardNeedsNoWakeup) {
  ShardedRtHost::Config cfg = MixedConfig();
  // A long backup period: if pickup depended on the backup (or on a condvar
  // wakeup, which a spinner never waits for), the 100 us event would miss
  // the 5 s test deadline by sleeping 10 ms per check.
  cfg.interrupt_clock_hz = 100;
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto token = host.RegisterProducer();
  std::atomic<uint64_t> fired_tick{0};
  uint64_t t0 = host.clock().NowTicks();
  host.runtime().ScheduleCrossCore(
      token, 0, 100 /* 100 us */,
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
  EXPECT_GE(fired_tick.load() - t0, 100u);  // paper bound: T < actual
  // No producer poke was ever delivered: the spinner is never a sleeper.
  EXPECT_EQ(host.shard_loop_stats(0).wakeups, 0u);
  EXPECT_EQ(host.shard_loop_stats(0).sleeps, 0u);
}

TEST(IsolatedRtHostTest, ShutdownWithEventInFlightWhileSpinning) {
  ShardedRtHost::Config cfg = MixedConfig();
  std::atomic<int> fired{0};
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto token = host.RegisterProducer();
  // Far-future event on the spinning shard: Stop() must join cleanly with
  // it still pending, and teardown must reclaim it without dispatching.
  host.runtime().ScheduleCrossCore(
      token, 0, 60'000'000 /* 60 s */,
      [&](const SoftTimerFacility::FireInfo&) {
        fired.fetch_add(1, std::memory_order_relaxed);
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  host.Stop();
  EXPECT_FALSE(host.running());
  EXPECT_EQ(fired.load(), 0);
  // Restart after an isolated-shard stop works too.
  host.Start();
  host.Stop();
}

TEST(IsolatedRtHostTest, CompensatedBackupNeverFiresTrulyLate) {
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.measure_hz = 1'000'000;
  cfg.interrupt_clock_hz = 1'000;  // 1 ms period: dozens of fires below
  cfg.shard_profiles.resize(1);
  cfg.shard_profiles[0].isolated = true;
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  host.Stop();
  ShardedRtHost::IsolatedShardStats iso = host.isolated_shard_stats(0);
  uint64_t backup_checks = host.shard_loop_stats(0).backup_checks;
  EXPECT_GT(backup_checks, 0u);
  // Compensation >= steal threshold makes this structural: a late fire with
  // a clean leading gap would contradict the threshold.
  EXPECT_EQ(iso.backup_true_late, 0u);
  EXPECT_EQ(backup_checks, iso.backup_on_time + iso.backup_steal_late);
  EXPECT_GE(iso.compensation_ticks, iso.steal_threshold_ticks);
}

TEST(IsolatedRtHostTest, RuntimeShardStatsCarryLatenessSummary) {
  // Each shard facility's Stats::lateness_ticks histogram is the shard's one
  // lateness record: the runtime exposes it through the shard facility, and
  // the host's raw accessor returns that same histogram, spinning or not.
  ShardedRtHost::Config cfg = MixedConfig();
  ShardedRtHost host(cfg);
  std::atomic<int> fired{0};
  host.runtime().ScheduleOnShard(0, 50,
                                 [&](const SoftTimerFacility::FireInfo&) {
                                   fired.fetch_add(1, std::memory_order_relaxed);
                                 });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  host.runtime().OnTriggerState(0, TriggerSource::kSyscall);
  ASSERT_EQ(fired.load(), 1);
  const LatencyHistogram& lateness =
      host.runtime().shard_facility(0).stats().lateness_ticks;
  EXPECT_EQ(lateness.count(), 1u);
  EXPECT_GT(lateness.max(), 0u);
  EXPECT_EQ(&host.shard_lateness_raw(0), &lateness);
  EXPECT_EQ(host.runtime().shard_facility(1).stats().lateness_ticks.count(),
            0u);
}

}  // namespace
}  // namespace softtimer
