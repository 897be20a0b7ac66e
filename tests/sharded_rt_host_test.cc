// ShardedRtHost behaviour: per-shard trigger loops, cross-core wakeups
// cutting through backup-bounded sleeps, a sleeping shard's lateness record
// and its loop thread's timer slack. Real threads and wall-clock sleeps;
// bounds are loose for loaded CI machines. Runs under the `cross-thread`
// label / tsan preset.

#include "src/rt/sharded_rt_host.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <array>
#include <atomic>
#include <chrono>
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
