// Cross-core commands always land: a (producer, shard) command ring that
// fills doubles instead of refusing. The single-thread test sends ten
// initial ring capacities of mixed commands to an owner that has not run
// yet and pins what the drain must then show: every command applied in
// order, exact conservation, and allocations only at the counted growths.
// The threaded test (run under the tsan preset via the `cross-thread` label)
// grows the ring while the owner drains it concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "src/core/sharded_soft_timer_runtime.h"

namespace softtimer {
namespace {

class ManualClock : public ClockSource {
 public:
  uint64_t NowTicks() const override {
    return now_.load(std::memory_order_relaxed);
  }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) {
    now_.fetch_add(ticks, std::memory_order_relaxed);
  }

 private:
  // Atomic: producer threads read the clock inside ScheduleCrossCore while
  // the consumer advances it.
  std::atomic<uint64_t> now_{0};
};

ShardedSoftTimerRuntime::Config OneShard() {
  ShardedSoftTimerRuntime::Config c;
  c.num_shards = 1;
  return c;
}

// Growths a channel needs to hold `commands` undrained: each doubles the
// capacity of the ring before it.
uint64_t GrowthsToHold(size_t commands) {
  size_t capacity = ShardedSoftTimerRuntime::kInitialRingCapacity;
  size_t held = capacity;
  uint64_t growths = 0;
  while (held < commands) {
    capacity *= 2;
    held += capacity;
    ++growths;
  }
  return growths;
}

TEST(ShardedRingGrowthTest, UnstartedOwnerGetsTenRingsOfMixedCommandsInOrder) {
  constexpr size_t kCommands =
      10 * ShardedSoftTimerRuntime::kInitialRingCapacity;
  constexpr uint64_t kShortDelta = 100;
  constexpr uint64_t kLongDelta = 10'000;
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, OneShard());
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());

  struct Timer {
    SoftEventId id;
    bool rearmed = false;
    bool cancelled = false;
    uint64_t fired_tick = 0;
  };
  std::vector<Timer> timers;
  timers.reserve(kCommands);
  Timer* base = timers.data();
  auto handler_for = [base](uint32_t i) {
    return [base, i](const SoftTimerFacility::FireInfo& info) {
      base[i].fired_tick = info.fired_tick;
    };
  };

  // Groups of five commands over three timers: schedule a, schedule b,
  // re-arm a late, schedule c, cancel b. A cancel or a re-arm that overtook
  // its schedule would miss. Each call is checked for allocations: only a
  // call that grew the ring may allocate.
  size_t commands = 0;
  uint64_t allocating_calls = 0;
  auto send = [&](auto&& call) {
    uint64_t growths = token.ring_full_rejects();
    uint64_t allocs = AllocProbeAllocCount();
    call();
    ++commands;
    if (AllocProbeAllocCount() != allocs) {
      ++allocating_calls;
      EXPECT_EQ(token.ring_full_rejects(), growths + 1)
          << "command " << commands << " allocated without growing the ring";
    }
  };
  auto schedule = [&] {
    uint32_t i = static_cast<uint32_t>(timers.size());
    timers.emplace_back();
    send([&] {
      timers[i].id =
          rt.ScheduleCrossCore(token, 0, kShortDelta, handler_for(i));
    });
    EXPECT_TRUE(timers[i].id.valid());
    return i;
  };
  while (commands + 5 <= kCommands) {
    uint32_t a = schedule();
    uint32_t b = schedule();
    send([&] {
      EXPECT_TRUE(rt.RescheduleCrossCore(token, timers[a].id, kLongDelta));
    });
    timers[a].rearmed = true;
    schedule();
    send([&] { EXPECT_TRUE(rt.CancelCrossCore(token, timers[b].id)); });
    timers[b].cancelled = true;
  }
  while (commands < kCommands) {
    schedule();
  }
  ASSERT_EQ(commands, kCommands);
  EXPECT_EQ(token.ring_full_rejects(), GrowthsToHold(kCommands));
  EXPECT_EQ(allocating_calls, token.ring_full_rejects());

  // The owner starts: drain sweeps until nothing is pending (each sweep
  // takes at most one ring capacity).
  while (rt.remote_pending(0)) {
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  ShardedSoftTimerRuntime::ShardStats stats = rt.shard_stats(0);
  uint64_t cancels = 0;
  uint64_t rearms = 0;
  for (const Timer& t : timers) {
    cancels += t.cancelled ? 1 : 0;
    rearms += t.rearmed ? 1 : 0;
  }
  EXPECT_EQ(stats.remote_scheduled, timers.size());
  EXPECT_EQ(stats.remote_cancelled, cancels);
  EXPECT_EQ(stats.remote_cancel_misses, 0u);
  EXPECT_EQ(stats.remote_rescheduled, rearms);
  EXPECT_EQ(stats.remote_reschedule_misses, 0u);

  // Past the short deadline only the timers never re-armed fire; the
  // re-armed ones wait for their later deadline.
  clock.Advance(kShortDelta * 2);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  for (const Timer& t : timers) {
    EXPECT_EQ(t.fired_tick != 0, !t.cancelled && !t.rearmed);
  }
  clock.Advance(kLongDelta);
  rt.OnTriggerState(0, TriggerSource::kSyscall);
  uint64_t fired = 0;
  for (const Timer& t : timers) {
    EXPECT_EQ(t.fired_tick != 0, !t.cancelled);
    if (t.rearmed) {
      EXPECT_GE(t.fired_tick, kLongDelta);
    }
    fired += t.fired_tick != 0 ? 1 : 0;
  }
  ShardedSoftTimerRuntime::RuntimeStats agg = rt.AggregateStats();
  EXPECT_EQ(agg.scheduled, agg.dispatches + agg.cancelled);
  EXPECT_EQ(agg.dispatches, fired);
  EXPECT_EQ(agg.cancelled, cancels);
  EXPECT_EQ(rt.shard_stats(0).remote_live, 0u);
}

// A producer outruns an owner that starts draining only once the ring has
// grown, then keeps draining while the producer sends the rest: every
// schedule lands and fires exactly once.
TEST(ShardedRingGrowthTest, ProducerOutrunningOwnerLandsEveryCommandCrossThread) {
  constexpr int kOps = 10'000;
  constexpr int kOwnerStartsAfter =
      3 * static_cast<int>(ShardedSoftTimerRuntime::kInitialRingCapacity);
  ManualClock clock;
  ShardedSoftTimerRuntime rt(&clock, OneShard());

  std::atomic<uint64_t> fired{0};
  std::atomic<int> sent{0};
  std::atomic<bool> producer_done{false};
  uint64_t growths = 0;

  std::thread producer([&] {
    auto token = rt.RegisterProducer();
    ASSERT_TRUE(token.valid());
    for (int op = 0; op < kOps; ++op) {
      SoftEventId id = rt.ScheduleCrossCore(
          token, 0, /*delta_ticks=*/0,
          [&fired](const SoftTimerFacility::FireInfo&) {
            fired.fetch_add(1, std::memory_order_relaxed);
          });
      EXPECT_TRUE(id.valid());
      sent.store(op + 1, std::memory_order_relaxed);
    }
    growths = token.ring_full_rejects();
    producer_done.store(true, std::memory_order_release);
  });

  // Consumer: the shard owner waits until the ring has had to grow, then
  // drains at trigger states until the producer finishes.
  while (sent.load(std::memory_order_relaxed) < kOwnerStartsAfter) {
    std::this_thread::yield();
  }
  while (!producer_done.load(std::memory_order_acquire)) {
    clock.Advance(1);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  producer.join();
  // Settle: drain the tail commands, then advance past their (quantum-
  // rounded) deadlines and sweep again.
  while (rt.remote_pending(0)) {
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  clock.Advance(64);
  rt.OnTriggerState(0, TriggerSource::kSyscall);

  EXPECT_GE(growths, 1u);
  EXPECT_EQ(rt.shard_stats(0).remote_scheduled, static_cast<uint64_t>(kOps));
  EXPECT_EQ(fired.load(), static_cast<uint64_t>(kOps));
}

}  // namespace
}  // namespace softtimer
