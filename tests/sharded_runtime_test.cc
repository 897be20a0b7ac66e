// ShardedSoftTimerRuntime semantics, exercised deterministically from one
// thread (the runtime's threading contract only requires that owner calls
// and a producer's calls are each serialized - a single thread satisfies
// both, so every cross-core protocol step can be observed in isolation).

#include "src/core/sharded_soft_timer_runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/timer/timer_slab.h"

namespace softtimer {
namespace {

class ManualClock : public ClockSource {
 public:
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) { now_ += ticks; }

 private:
  uint64_t now_ = 0;
};

ShardedSoftTimerRuntime::Config Cfg(size_t shards) {
  ShardedSoftTimerRuntime::Config c;
  c.num_shards = shards;
  return c;
}

TEST(RemoteIdMapTest, InsertFindEraseAcrossGrowth) {
  RemoteIdMap map;
  constexpr uint64_t kBase = kTimerIdRemoteBit;  // realistic key shape
  for (uint64_t i = 0; i < 1000; ++i) {
    map.Insert(kBase + i, i + 1);
  }
  EXPECT_EQ(map.size(), 1000u);
  for (uint64_t i = 0; i < 1000; i += 2) {
    EXPECT_TRUE(map.Erase(kBase + i));
  }
  EXPECT_FALSE(map.Erase(kBase + 2));  // already gone
  EXPECT_EQ(map.size(), 500u);
  // Backward-shift deletion must leave every survivor reachable.
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(map.Find(kBase + i), i % 2 == 1 ? i + 1 : 0u);
  }
}

TEST(ShardedRuntimeTest, LocalIdsCarryShardByte) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(4));
  int fired = 0;
  SoftEventId id = rt.ScheduleOnShard(
      2, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  ASSERT_TRUE(id.valid());
  EXPECT_EQ(TimerIdShard(id.value), 2u);
  EXPECT_FALSE(IsRemoteTimerId(id.value));

  // The id is only meaningful on its own shard.
  EXPECT_FALSE(rt.CancelOnShard(1, id));
  clock.Advance(150);
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 0u);
  EXPECT_EQ(rt.OnTriggerState(2, TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(rt.CancelOnShard(2, id));  // already fired
}

TEST(ShardedRuntimeTest, LocalCancelOnOwningShard) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  int fired = 0;
  SoftEventId id = rt.ScheduleOnShard(
      1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  EXPECT_TRUE(rt.CancelOnShard(1, id));
  clock.Advance(200);
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(ShardedRuntimeTest, CrossCoreScheduleDrainsAndFires) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());

  int fired = 0;
  SoftEventId id = rt.ScheduleCrossCore(
      token, 1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  ASSERT_TRUE(id.valid());
  EXPECT_TRUE(IsRemoteTimerId(id.value));
  EXPECT_EQ(TimerIdShard(id.value), 1u);
  EXPECT_TRUE(rt.remote_pending(1));
  EXPECT_FALSE(rt.remote_pending(0));

  // The target shard's next trigger check drains the command...
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kIpIntr), 0u);
  EXPECT_FALSE(rt.remote_pending(1));
  EXPECT_EQ(rt.shard_stats(1).remote_scheduled, 1u);
  EXPECT_EQ(rt.shard_stats(1).remote_live, 1u);

  // ...and the event fires at its deadline, attributed to the firing source.
  clock.Advance(150);
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kIpOutput), 1u);
  EXPECT_EQ(fired, 1);
  // Fire retired the remote-id table entry (cookie hook).
  EXPECT_EQ(rt.shard_stats(1).remote_live, 0u);
  EXPECT_EQ(rt.shard_facility(1)
                .stats()
                .dispatches_by_source[static_cast<size_t>(TriggerSource::kIpOutput)],
            1u);
}

TEST(ShardedRuntimeTest, CrossCoreCancelFromSameProducerIsReliable) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  int fired = 0;
  SoftEventId id = rt.ScheduleCrossCore(
      token, 1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  // Cancel enqueued behind the schedule in the same ring: FIFO drain applies
  // schedule-then-cancel, so the cancel always lands.
  EXPECT_TRUE(rt.CancelCrossCore(token, id));
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  clock.Advance(200);
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 0u);
  EXPECT_EQ(fired, 0);
  ShardedSoftTimerRuntime::ShardStats s = rt.shard_stats(1);
  EXPECT_EQ(s.remote_scheduled, 1u);
  EXPECT_EQ(s.remote_cancelled, 1u);
  EXPECT_EQ(s.remote_live, 0u);
}

TEST(ShardedRuntimeTest, CancelForUndrainedForeignScheduleIsMiss) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto producer_a = rt.RegisterProducer();
  auto producer_b = rt.RegisterProducer();
  int fired = 0;
  // Schedule from B (ring 1) but cancel from A (ring 0): rings drain in
  // producer order, so the cancel reaches the shard before the schedule.
  // Cross-producer cancels are best-effort: it misses, the event fires.
  SoftEventId id = rt.ScheduleCrossCore(
      producer_b, 1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  EXPECT_TRUE(rt.CancelCrossCore(producer_a, id));
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  ShardedSoftTimerRuntime::ShardStats after_drain = rt.shard_stats(1);
  EXPECT_EQ(after_drain.remote_scheduled, 1u);
  EXPECT_EQ(after_drain.remote_cancel_misses, 1u);
  EXPECT_EQ(after_drain.remote_cancelled, 0u);
  clock.Advance(200);
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedRuntimeTest, FullRingGrowsInsteadOfRejecting) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  constexpr size_t kPushes = 2 * ShardedSoftTimerRuntime::kInitialRingCapacity;
  int fired = 0;
  for (size_t i = 0; i < kPushes; ++i) {
    EXPECT_TRUE(rt.ScheduleCrossCore(token, 0, 1'000,
                                     [&](const SoftTimerFacility::FireInfo&) {
                                       ++fired;
                                     })
                    .valid());
  }
  // The push after the first ring-full doubled the ring; the rest fit.
  EXPECT_EQ(token.ring_full_rejects(), 1u);
  // A sweep drains at most one ring capacity and re-raises the flag.
  EXPECT_EQ(rt.DrainRemote(0), ShardedSoftTimerRuntime::kInitialRingCapacity);
  EXPECT_TRUE(rt.remote_pending(0));
  EXPECT_EQ(rt.DrainRemote(0), ShardedSoftTimerRuntime::kInitialRingCapacity);
  EXPECT_FALSE(rt.remote_pending(0));
  clock.Advance(2'000);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(fired, static_cast<int>(kPushes));
}

TEST(ShardedRuntimeTest, RemoteDeadlineAnchorsAtEnqueueTime) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  int fired = 0;
  // Enqueue at t=0 with T=100, but don't drain until t=60: the event must
  // still fire at ~t=101, not t=161 (ring residency counts against T).
  rt.ScheduleCrossCore(token, 0, 100,
                       [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  clock.Advance(60);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drain at t=60
  clock.Advance(35);                              // t=95 < 100: not yet
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 0u);
  clock.Advance(10);                              // t=105 > 101: due
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedRuntimeTest, OverdueRemoteFiresImmediatelyAfterDrain) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  int fired = 0;
  uint64_t lateness = 0;
  auto record = [&](const SoftTimerFacility::FireInfo& info) {
    ++fired;
    lateness = info.lateness_ticks();
  };
  rt.ScheduleCrossCore(token, 0, 10, record);
  clock.Advance(500);  // way past due while still in the ring
  // One check: drain + dispatch in the same trigger state.
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  clock.Advance(2);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
  // The lateness counts from the enqueue tick: the ring wait shows.
  EXPECT_GE(lateness, 490u);

  // A re-arm drained past its due reports its whole wait the same way.
  SoftEventId id = rt.ScheduleCrossCore(token, 0, 1'000, record);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drained on time
  ASSERT_TRUE(rt.RescheduleCrossCore(token, id, 10));
  clock.Advance(500);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  clock.Advance(2);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(fired, 2);
  EXPECT_GE(lateness, 490u);
}

TEST(ShardedRuntimeTest, RemoteDrainedLateCountsDrainsPastOneBackupPeriod) {
  // 1 MHz clock, 1 kHz backup: one backup period is 1,000 ticks.
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  std::vector<uint64_t> lateness;
  auto record = [&](const SoftTimerFacility::FireInfo& info) {
    lateness.push_back(info.lateness_ticks());
  };
  SoftEventId rearmed = rt.ScheduleCrossCore(token, 0, 5'000, record);
  SoftEventId cancelled = rt.ScheduleCrossCore(token, 0, 5'000, record);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drained at once
  EXPECT_EQ(rt.shard_stats(0).remote_drained_late, 0u);

  // All enqueued at t=0, drained at t=1,010 by a stalled owner.
  rt.ScheduleCrossCore(token, 0, 9, record);   // due 9: 1,001 past, late
  rt.ScheduleCrossCore(token, 0, 10, record);  // due 10: exactly one period
  ASSERT_TRUE(rt.RescheduleCrossCore(token, rearmed, 5));  // due 5: late
  ASSERT_TRUE(rt.CancelCrossCore(token, cancelled));  // no due: never late
  clock.Advance(1'010);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  ShardedSoftTimerRuntime::ShardStats stats = rt.shard_stats(0);
  EXPECT_EQ(stats.remote_drained_late, 2u);
  EXPECT_EQ(stats.remote_rescheduled, 1u);
  EXPECT_EQ(stats.remote_cancelled, 1u);
  // All three fired in the drain's own check, each as late as its wait.
  std::sort(lateness.begin(), lateness.end());
  EXPECT_EQ(lateness, (std::vector<uint64_t>{1'000, 1'001, 1'005}));
}

TEST(ShardedRuntimeTest, OwnerCanCancelDrainedRemoteId) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  int fired = 0;
  SoftEventId id = rt.ScheduleCrossCore(
      token, 1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  EXPECT_FALSE(rt.CancelOnShard(1, id));  // not drained yet: unknown
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  EXPECT_TRUE(rt.CancelOnShard(1, id));   // resolved through the id table
  EXPECT_FALSE(rt.CancelOnShard(1, id));  // idempotent
  EXPECT_EQ(rt.shard_stats(1).remote_live, 0u);
  clock.Advance(200);
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  EXPECT_EQ(fired, 0);
}

TEST(ShardedRuntimeTest, RescheduleOnShardMovesDeadlineBothWays) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  int fired = 0;
  SoftEventId id = rt.ScheduleOnShard(
      1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  // Wrong shard: rejected, event untouched.
  EXPECT_FALSE(rt.RescheduleOnShard(0, id, 10));

  // Push the deadline out: t=50, re-arm for T=500 -> due past t=551.
  clock.Advance(50);
  ASSERT_TRUE(rt.RescheduleOnShard(1, id, 500));
  EXPECT_EQ(TimerIdShard(id.value), 1u);
  clock.Advance(100);  // t=150: the original deadline passed, must not fire
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 0u);

  // Pull it back in: t=150, re-arm for T=20 -> due past t=171.
  ASSERT_TRUE(rt.RescheduleOnShard(1, id, 20));
  clock.Advance(30);
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, 1);
  // The event is gone: a further reschedule misses.
  EXPECT_FALSE(rt.RescheduleOnShard(1, id, 10));
  EXPECT_EQ(rt.shard_facility(1).stats().rescheduled, 2u);
}

TEST(ShardedRuntimeTest, RescheduleCrossCoreKeepsRemoteHandleLive) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  int fired = 0;
  SoftEventId id = rt.ScheduleCrossCore(
      token, 1, 100, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  ASSERT_TRUE(IsRemoteTimerId(id.value));
  // FIFO drain applies schedule-then-update, so a same-producer reschedule
  // is reliable even before the schedule has drained.
  EXPECT_TRUE(rt.RescheduleCrossCore(token, id, 400));
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  EXPECT_EQ(rt.shard_stats(1).remote_rescheduled, 1u);
  clock.Advance(150);  // t=150: original deadline passed, moved one pending
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 0u);
  // The SAME remote id still names the event: cancel it through the table.
  EXPECT_TRUE(rt.CancelOnShard(1, id));
  clock.Advance(500);
  EXPECT_EQ(rt.OnTriggerState(1, TriggerSource::kSyscall), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(rt.shard_stats(1).remote_live, 0u);
}

TEST(ShardedRuntimeTest, RescheduleCrossCoreAnchorsAtEnqueueTick) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  int fired = 0;
  SoftEventId id = rt.ScheduleCrossCore(
      token, 0, 50, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drain the schedule
  // Enqueue the re-arm at t=0 with T=100, drain it at t=60: the event must
  // fire at ~t=101, not t=161 (ring residency counts against T).
  EXPECT_TRUE(rt.RescheduleCrossCore(token, id, 100));
  clock.Advance(60);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drain at t=60
  clock.Advance(35);                              // t=95 < 100: not yet
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 0u);
  clock.Advance(10);                              // t=105 > 101: due
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedRuntimeTest, RescheduleCrossCoreTakesLocalIdsAndMissesDead) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  auto token = rt.RegisterProducer();
  int local_fired = 0;
  SoftEventId local = rt.ScheduleOnShard(
      0, 1'000, [&](const SoftTimerFacility::FireInfo&) { ++local_fired; });

  // A re-arm racing the event's own dispatch is a counted miss, not a crash.
  int fired = 0;
  SoftEventId remote = rt.ScheduleCrossCore(
      token, 0, 10, [&](const SoftTimerFacility::FireInfo&) { ++fired; });
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  clock.Advance(50);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  ASSERT_EQ(fired, 1);
  EXPECT_TRUE(rt.RescheduleCrossCore(token, remote, 100));  // enqueued...
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(rt.shard_stats(0).remote_reschedule_misses, 1u);  // ...but missed
  EXPECT_EQ(rt.shard_stats(0).remote_rescheduled, 0u);

  // A local id keeps naming its event across a re-arm, so the producer API
  // takes it: the re-arm lands, and the same id then cancels the event.
  EXPECT_TRUE(rt.RescheduleCrossCore(token, local, 10));
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(rt.shard_stats(0).remote_rescheduled, 1u);
  EXPECT_TRUE(rt.CancelCrossCore(token, local));
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(rt.shard_stats(0).remote_cancelled, 1u);
  clock.Advance(2'000);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(local_fired, 0);
}

TEST(ShardedRuntimeTest, PolicyShardCancelsDeferredRemoteEvent) {
  // A shard may run a degradation policy: a batch-cap deferral keeps the
  // event's facility id, so the remote id still cancels it.
  ManualClock clock;
  ShardedSoftTimerRuntime::Config cfg = Cfg(1);
  cfg.facility.degradation.enabled = true;
  cfg.facility.degradation.max_dispatches_per_check = 1;
  ShardedSoftTimerRuntime rt(&clock, cfg);
  ASSERT_NE(rt.shard_facility(0).degradation(), nullptr);
  auto token = rt.RegisterProducer();
  int fired = 0;
  auto handler = [&](const SoftTimerFacility::FireInfo&) { ++fired; };
  rt.ScheduleCrossCore(token, 0, 10, handler);
  SoftEventId second = rt.ScheduleCrossCore(token, 0, 10, handler);
  rt.OnTriggerState(0, TriggerSource::kSyscall);  // drain both schedules
  clock.Advance(50);
  // Both due: the cap dispatches the first and defers the second.
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rt.shard_stats(0).remote_live, 1u);
  EXPECT_TRUE(rt.CancelCrossCore(token, second));
  clock.Advance(1);
  EXPECT_EQ(rt.OnTriggerState(0, TriggerSource::kSyscall), 0u);
  EXPECT_EQ(rt.shard_stats(0).remote_cancelled, 1u);
  EXPECT_EQ(rt.shard_stats(0).remote_live, 0u);
  clock.Advance(100);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedRuntimeTest, WakeHookFiresOnPublish) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(3));
  struct Wake {
    size_t shard;
    uint64_t due_tick;
    uint64_t enqueue_tick;
  };
  std::vector<Wake> woken;
  rt.set_wake_hook(
      [](void* ctx, size_t shard, uint64_t due_tick, uint64_t enqueue_tick) {
        static_cast<std::vector<Wake>*>(ctx)->push_back(
            Wake{shard, due_tick, enqueue_tick});
      },
      &woken);
  auto token = rt.RegisterProducer();
  clock.Advance(40);
  SoftEventId id = rt.ScheduleCrossCore(
      token, 2, 100, [](const SoftTimerFacility::FireInfo&) {});
  rt.ScheduleCrossCore(token, 0, 100, [](const SoftTimerFacility::FireInfo&) {});
  clock.Advance(10);
  rt.RescheduleCrossCore(token, id, 300);
  rt.CancelCrossCore(token, id);
  ASSERT_EQ(woken.size(), 4u);
  // A schedule or re-arm is due at its enqueue tick + T.
  EXPECT_EQ(woken[0].shard, 2u);
  EXPECT_EQ(woken[0].due_tick, 140u);
  EXPECT_EQ(woken[0].enqueue_tick, 40u);
  EXPECT_EQ(woken[1].shard, 0u);
  EXPECT_EQ(woken[1].due_tick, 140u);
  EXPECT_EQ(woken[2].shard, 2u);
  EXPECT_EQ(woken[2].due_tick, 350u);
  EXPECT_EQ(woken[2].enqueue_tick, 50u);
  // A cancel makes nothing due sooner, and reads no clock.
  EXPECT_EQ(woken[3].shard, 2u);
  EXPECT_EQ(woken[3].due_tick, ShardedSoftTimerRuntime::kNeverDue);
  EXPECT_EQ(woken[3].enqueue_tick, 0u);
}

TEST(ShardedRuntimeTest, ProducerRegistrationIsBounded) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  // The remote id's 8-bit producer field bounds the registrations.
  ShardedSoftTimerRuntime::ProducerToken last;
  for (size_t p = 0; p < ShardedSoftTimerRuntime::kMaxProducers; ++p) {
    last = rt.RegisterProducer();
    ASSERT_TRUE(last.valid());
    EXPECT_EQ(last.index(), p);
  }
  auto overflow = rt.RegisterProducer();
  EXPECT_FALSE(overflow.valid());
  // The last producer's channel is swept like the first's.
  EXPECT_TRUE(rt.ScheduleCrossCore(last, 0, 10,
                                   [](const SoftTimerFacility::FireInfo&) {})
                  .valid());
  EXPECT_EQ(rt.DrainRemote(0), 1u);
  // An invalid token is rejected, not UB.
  EXPECT_FALSE(rt.ScheduleCrossCore(overflow, 0, 10,
                                    [](const SoftTimerFacility::FireInfo&) {})
                   .valid());
}

TEST(ShardedRuntimeTest, AggregateStatsSumShards) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(2));
  auto token = rt.RegisterProducer();
  rt.ScheduleOnShard(0, 10, [](const SoftTimerFacility::FireInfo&) {});
  rt.ScheduleOnShard(1, 10, [](const SoftTimerFacility::FireInfo&) {});
  rt.ScheduleCrossCore(token, 1, 10, [](const SoftTimerFacility::FireInfo&) {});
  clock.Advance(50);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  // The overdue remote event drains at t=50 and clamps to t=51 (an
  // already-due schedule fires on the next check, per queue semantics).
  clock.Advance(2);
  rt.OnTriggerState(1, TriggerSource::kSyscall);
  ShardedSoftTimerRuntime::RuntimeStats s = rt.AggregateStats();
  EXPECT_EQ(s.scheduled, 3u);  // remote schedules land as facility schedules
  EXPECT_EQ(s.dispatches, 3u);
  EXPECT_EQ(s.remote_scheduled, 1u);
  EXPECT_EQ(s.checks, 3u);
  EXPECT_EQ(s.slab_live, 0u);
  EXPECT_GT(s.slab_capacity, 0u);
}

TEST(ShardedRuntimeTest, TrimShardStorageReleasesAfterBurst) {
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, Cfg(1));
  std::vector<SoftEventId> ids;
  for (int i = 0; i < 600; ++i) {
    ids.push_back(
        rt.ScheduleOnShard(0, 1'000, [](const SoftTimerFacility::FireInfo&) {}));
  }
  for (SoftEventId id : ids) {
    ASSERT_TRUE(rt.CancelOnShard(0, id));
  }
  EXPECT_GE(rt.TrimShardStorage(0), 2u);
  EXPECT_EQ(rt.AggregateStats().slab_live, 0u);
}

}  // namespace
}  // namespace softtimer
