// Enforces the zero-allocation hot-path guarantee (DESIGN.md "Hot path
// anatomy"): with no degradation policy configured, steady-state
// ScheduleSoftEvent / CancelSoftEvent, the nothing-due trigger-state check,
// and the dispatch cycle must not touch the heap once internal storage
// (timer slab, expiry scratch) has reached its high-water mark. The same
// holds for cross-core commands and the owner's drain of them once the
// command ring, the slab and the remote-id table are warm.
//
// The binary links bench/alloc_probe.cc, which interposes global operator
// new/delete with counting wrappers, so any allocation on these paths is an
// exact test failure, not a perf regression to notice later.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bench/alloc_probe.h"
#include "src/core/clock_source.h"
#include "src/core/sharded_soft_timer_runtime.h"
#include "src/core/soft_timer_facility.h"
#include "src/net/multi_queue_poller.h"
#include "src/pacing/pacing_wheel.h"
#include "src/pacing/pacing_wheel_host.h"
#include "src/sim/simulator.h"
#include "tests/queue_row.h"

namespace softtimer {
namespace {

class HotpathAllocTest : public ::testing::TestWithParam<QueueRow> {
 protected:
  HotpathAllocTest()
      : clock_(&sim_, 1'000'000),
        facility_(&clock_, SoftTimerFacility::Config{}) {}

  Simulator sim_;
  SimClockSource clock_;
  SoftTimerFacility facility_;
  uint64_t fired_ = 0;
};

TEST_P(HotpathAllocTest, SteadyStateScheduleCancelAllocatesNothing) {
  // The handler capture must fit std::function's inline buffer, or the
  // allocation happens before the facility is even involved.
  uint64_t* fired = &fired_;
  auto handler = [fired](const SoftTimerFacility::FireInfo&) { ++*fired; };
  std::vector<SoftEventId> ids(256);
  auto round = [&] {
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = facility_.ScheduleSoftEvent(1000 + i, handler);
    }
    for (SoftEventId id : ids) {
      EXPECT_TRUE(facility_.CancelSoftEvent(id));
    }
  };
  // Warmup: grows the slab and the heap's entry vector to their high-water
  // marks. Two rounds, because lazy deletion can carry a few stale entries
  // into the next round, nudging the peak size up once.
  round();
  round();
  uint64_t start = AllocProbeAllocCount();
  for (int r = 0; r < 4; ++r) {
    round();
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
}

TEST_P(HotpathAllocTest, NothingDueTriggerCheckAllocatesNothing) {
  uint64_t* fired = &fired_;
  facility_.ScheduleSoftEvent(1'000'000'000,
                              [fired](const SoftTimerFacility::FireInfo&) { ++*fired; });
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(facility_.OnTriggerState(TriggerSource::kSyscall), 0u);
  }
  uint64_t start = AllocProbeAllocCount();
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_EQ(facility_.OnTriggerState(TriggerSource::kSyscall), 0u);
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  EXPECT_EQ(fired_, 0u);
}

TEST_P(HotpathAllocTest, SteadyStateDispatchAllocatesNothing) {
  uint64_t* fired = &fired_;
  auto handler = [fired](const SoftTimerFacility::FireInfo&) { ++*fired; };
  auto cycle = [&] {
    facility_.ScheduleSoftEvent(1, handler);
    sim_.RunUntil(sim_.now() + SimDuration::Nanos(2'000));
    facility_.OnTriggerState(TriggerSource::kSyscall);
  };
  for (int i = 0; i < 256; ++i) {
    cycle();  // warmup: slab + expiry scratch reach steady state
  }
  uint64_t fired_before = fired_;
  uint64_t start = AllocProbeAllocCount();
  for (int i = 0; i < 10'000; ++i) {
    cycle();
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  EXPECT_EQ(fired_ - fired_before, 10'000u);
}

TEST_P(HotpathAllocTest, SteadyStateRescheduleAllocatesNothing) {
  // Re-arm churn - the RTO restart pattern: a pool of live events whose
  // deadlines keep moving. Update's in-place move must stay off the heap
  // once the slab and the heap vector have grown.
  uint64_t* fired = &fired_;
  auto handler = [fired](const SoftTimerFacility::FireInfo&) { ++*fired; };
  std::vector<SoftEventId> ids(256);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = facility_.ScheduleSoftEvent(10'000 + i, handler);
  }
  auto round = [&](uint64_t delta) {
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(facility_.RescheduleSoftEvent(ids[i], delta + i));
    }
  };
  round(20'000);  // warmup: the heap vector reaches its high-water mark
  round(10'000);
  uint64_t start = AllocProbeAllocCount();
  for (int r = 0; r < 8; ++r) {
    round(10'000 + static_cast<uint64_t>(r) * 1'000);
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  EXPECT_EQ(facility_.stats().rescheduled, 10u * ids.size());
  for (SoftEventId id : ids) {
    EXPECT_TRUE(facility_.CancelSoftEvent(id));
  }
}

// --- cross-core commands: schedule / re-arm / cancel and the drain --------

TEST(ShardedRuntimeAllocTest, SteadyStateCrossCoreCommandsAllocateNothing) {
  // One thread plays producer and owner: the runtime needs each side's
  // calls serialized, not on separate threads.
  Simulator sim;
  SimClockSource clock(&sim, 1'000'000);
  ShardedSoftTimerRuntime::Config config;
  config.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, config);
  auto token = rt.RegisterProducer();
  ASSERT_TRUE(token.valid());
  uint64_t fired = 0;
  uint64_t* fired_p = &fired;
  auto handler = [fired_p](const SoftTimerFacility::FireInfo&) { ++*fired_p; };
  std::vector<SoftEventId> ids(256);
  auto round = [&] {
    for (SoftEventId& id : ids) {
      id = rt.ScheduleCrossCore(token, 0, 10, handler);
    }
    rt.OnTriggerState(0, TriggerSource::kSyscall);  // drains the schedules
    for (SoftEventId id : ids) {
      ASSERT_TRUE(rt.RescheduleCrossCore(token, id, 20));
    }
    for (size_t i = 0; i < ids.size(); i += 2) {
      ASSERT_TRUE(rt.CancelCrossCore(token, ids[i]));
    }
    rt.OnTriggerState(0, TriggerSource::kSyscall);  // drains the rest
    sim.RunUntil(sim.now() + SimDuration::Micros(50));
    rt.OnTriggerState(0, TriggerSource::kSyscall);  // fires the survivors
  };
  // Warmup: grows the slab, the heap and the remote-id table to their
  // high-water marks; the command ring holds every round without growing.
  round();
  round();
  uint64_t fired_before = fired;
  uint64_t start = AllocProbeAllocCount();
  for (int r = 0; r < 4; ++r) {
    round();
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  EXPECT_EQ(fired - fired_before, 4 * ids.size() / 2);
  EXPECT_EQ(token.ring_full_rejects(), 0u);
  ShardedSoftTimerRuntime::ShardStats stats = rt.shard_stats(0);
  EXPECT_EQ(stats.remote_cancel_misses, 0u);
  EXPECT_EQ(stats.remote_reschedule_misses, 0u);
  EXPECT_EQ(stats.remote_live, 0u);
}

TEST(ShardedRuntimeAllocTest, CommandRingsAreBuiltWhenAProducerRegisters) {
  // A command carries an id, a delay and an enqueue tick besides its
  // handler, so one ring's slots take at least this many bytes.
  constexpr uint64_t kMinRingBytes =
      ShardedSoftTimerRuntime::kInitialRingCapacity *
      (3 * sizeof(uint64_t) + sizeof(SoftTimerFacility::Handler));
  Simulator sim;
  SimClockSource clock(&sim, 1'000'000);
  ShardedSoftTimerRuntime::Config one_shard;
  one_shard.num_shards = 1;
  ShardedSoftTimerRuntime::Config two_shards;
  two_shards.num_shards = 2;

  ShardedSoftTimerRuntime single(&clock, one_shard);
  uint64_t start = AllocProbeAllocBytes();
  ASSERT_TRUE(single.RegisterProducer().valid());
  uint64_t channel_bytes = AllocProbeAllocBytes() - start;
  EXPECT_GE(channel_bytes, kMinRingBytes);

  // Constructing a runtime builds no ring, however many shards it has.
  start = AllocProbeAllocBytes();
  ShardedSoftTimerRuntime rt(&clock, two_shards);
  EXPECT_LT(AllocProbeAllocBytes() - start, kMinRingBytes);
  // A registration builds one channel (one ring) per shard.
  start = AllocProbeAllocBytes();
  ASSERT_TRUE(rt.RegisterProducer().valid());
  EXPECT_EQ(AllocProbeAllocBytes() - start, 2 * channel_bytes);
}

// --- pacing wheel: enqueue / re-rate / dispatch stay off the heap ---------

class NullSink : public PacingWheel::BatchSink {
 public:
  void OnPacedBatch(const PacedEmit* batch, size_t count, uint64_t) override {
    packets += count;
    (void)batch;
  }
  uint64_t packets = 0;
};

class PacingWheelAllocTest : public ::testing::TestWithParam<QueueRow> {
 protected:
  PacingWheelAllocTest()
      : clock_(&sim_, 1'000'000),
        facility_(&clock_, SoftTimerFacility::Config{}),
        wheel_(MakeWheel()),
        host_(&facility_, &wheel_) {
    host_.set_sink(&sink_);
  }

  static PacingWheel::Config MakeWheel() {
    PacingWheel::Config config;
    config.quantum_ticks = 8;
    config.num_slots = 1024;
    // Provable zero-alloc steady state: a ReRate sweep can pile all 512
    // flows into whichever slot is current, and that slot differs each
    // sweep, so lazy growth would keep ratcheting fresh slot vectors
    // forever. Pre-reserving every slot closes that.
    config.reserve_slot_capacity = 512;
    return config;
  }

  Simulator sim_;
  SimClockSource clock_;
  SoftTimerFacility facility_;
  PacingWheel wheel_;
  PacingWheelHost host_;
  NullSink sink_;
};

TEST_P(PacingWheelAllocTest, SteadyStateEnqueueReRateDispatchAllocatesNothing) {
  // 512 flows at heterogeneous rates, driven through the facility-armed
  // wheel event: after the warmup grows the slab, the slot vectors, and the
  // emit batch to their high-water marks, the whole activate -> drain ->
  // re-bucket -> re-rate cycle must never touch the heap.
  std::vector<PacedFlowId> ids;
  for (int i = 0; i < 512; ++i) {
    PacedFlowConfig fc;
    fc.target_interval_ticks = 64 + (static_cast<uint64_t>(i) % 7) * 32;
    fc.min_burst_interval_ticks = 16;
    fc.max_coalesced_burst_packets = 4;
    PacedFlowId id = host_.AddFlow(fc);
    ASSERT_TRUE(id.valid());
    ASSERT_TRUE(host_.Activate(id, static_cast<uint64_t>(i) % 128));
    ids.push_back(id);
  }
  auto spin = [&](int steps) {
    for (int t = 0; t < steps; ++t) {
      sim_.RunUntil(sim_.now() + SimDuration::Nanos(4'000));
      facility_.OnTriggerState(TriggerSource::kSyscall);
    }
  };
  // One cycle = the full hot-path mix: drains/re-buckets, a re-rate sweep,
  // and deactivate/reactivate churn. Warmup cycles are IDENTICAL to the
  // measured ones, so every slot vector, the drain scratch, and the emit
  // batch hit their high-water marks before counting starts (slot occupancy
  // maxima ratchet; a novel access pattern mid-measurement would ratchet
  // them again).
  auto cycle = [&] {
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(host_.ReRate(ids[i], 96 + (i % 5) * 32, 24));
    }
    spin(1'000);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(host_.ReRate(ids[i], 64 + (i % 7) * 32, 16));
    }
    spin(1'000);
    for (size_t i = 0; i < ids.size(); i += 4) {
      ASSERT_TRUE(host_.Deactivate(ids[i]));
      ASSERT_TRUE(host_.Activate(ids[i], i % 64));
    }
    spin(1'000);
  };
  cycle();
  cycle();
  cycle();  // three warmup laps, like the facility tests' double round
  uint64_t packets_before = sink_.packets;
  uint64_t start = AllocProbeAllocCount();
  cycle();
  cycle();
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  EXPECT_GT(sink_.packets - packets_before, 10'000u);
}

// --- multi-queue poller: the claim + poll fast path stays off the heap ----

class FixedDrainQueue : public MultiQueuePoller::Queue {
 public:
  size_t Drain(size_t max_packets, uint64_t) override {
    drains_ += 1;
    return max_packets < 3 ? max_packets : 3;
  }
  uint64_t drains() const { return drains_; }

 private:
  uint64_t drains_ = 0;
};

TEST(MultiQueuePollerAllocTest, ClaimAndPollPathAllocatesNothing) {
  // The BENCH_poll gate: once construction and AddQueue have sized the
  // per-queue state, the whole PollOnce cycle - gate check, deadline scan,
  // CAS claim, drain, governor update, release, gate publish - must never
  // touch the heap, on the found-work path and on the gate-skip / scan-miss
  // paths alike.
  MultiQueuePoller::Config config;
  config.governor.aggregation_quota = 2.0;
  config.governor.min_interval_ticks = 10;
  config.governor.max_interval_ticks = 200;
  config.governor.initial_interval_ticks = 100;
  MultiQueuePoller poller(config);
  std::vector<FixedDrainQueue> queues(8);
  for (auto& q : queues) {
    poller.AddQueue(&q);
  }
  uint64_t now = 0;
  auto cycle = [&] {
    now += 50;
    poller.PollOnce(0, now);  // serves at most one due queue
    poller.PollOnce(1, now);  // another due queue, or a scan miss
    poller.PollOnce(0, now);  // likely gate-skip once the gate advanced
  };
  for (int i = 0; i < 256; ++i) {
    cycle();  // warmup (nothing here should grow, but mirror the idiom)
  }
  uint64_t start = AllocProbeAllocCount();
  for (int i = 0; i < 10'000; ++i) {
    cycle();
  }
  EXPECT_EQ(AllocProbeAllocCount() - start, 0u);
  uint64_t drains = 0;
  for (auto& q : queues) {
    drains += q.drains();
  }
  EXPECT_GT(drains, 10'000u);
  EXPECT_EQ(poller.total_packets(), 3 * drains);
}

std::string RowName(const ::testing::TestParamInfo<QueueRow>&) {
  return "Heap";
}

INSTANTIATE_TEST_SUITE_P(AllQueueKinds, PacingWheelAllocTest,
                         ::testing::Values(QueueRow::kHeap), RowName);

INSTANTIATE_TEST_SUITE_P(AllQueueKinds, HotpathAllocTest,
                         ::testing::Values(QueueRow::kHeap), RowName);

}  // namespace
}  // namespace softtimer
