// TimerSlab Trim(): releasing fully-free chunks must shrink capacity, keep
// live timers untouched, and preserve generation/ABA safety for stale
// TimerIds across a release / re-materialize cycle - through the timer
// queue and through the facility that holds it.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/soft_timer_facility.h"
#include "src/timer/heap_timer_queue.h"
#include "src/timer/timer_slab.h"
#include "tests/queue_row.h"

namespace softtimer {
namespace {

class SlabTrimTest : public ::testing::TestWithParam<QueueRow> {
 protected:
  std::unique_ptr<HeapTimerQueue> MakeQueue() {
    return std::make_unique<HeapTimerQueue>();
  }
};

constexpr uint32_t kChunk = 256;  // TimerSlab chunk size

TEST_P(SlabTrimTest, TrimReleasesFullyFreeChunks) {
  auto q = MakeQueue();
  std::vector<TimerId> ids;
  for (uint32_t i = 0; i < 4 * kChunk; ++i) {
    ids.push_back(q->Schedule(1'000'000 + i, [] {}));
  }
  TimerSlabStats before = q->slab_stats();
  EXPECT_GE(before.capacity, 4 * kChunk);
  EXPECT_EQ(before.live, 4 * kChunk);
  EXPECT_EQ(before.released_chunks, 0u);

  for (TimerId id : ids) {
    EXPECT_TRUE(q->Cancel(id));
  }
  size_t released = q->TrimSlab();
  EXPECT_GE(released, 4u);
  TimerSlabStats after = q->slab_stats();
  EXPECT_EQ(after.live, 0u);
  EXPECT_EQ(after.capacity, before.capacity - released * kChunk);
  EXPECT_EQ(after.released_chunks, released);

  // The slab regrows on demand, preferring released chunks.
  TimerId id = q->Schedule(10, [] {});
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(q->slab_stats().released_chunks, released - 1);
  EXPECT_TRUE(q->Cancel(id));
}

TEST_P(SlabTrimTest, TrimKeepsChunksWithLiveTimers) {
  auto q = MakeQueue();
  std::vector<TimerId> ids;
  for (uint32_t i = 0; i < 3 * kChunk; ++i) {
    ids.push_back(q->Schedule(1'000'000 + i, [] {}));
  }
  // Free everything except one timer per chunk: no chunk is fully free.
  for (uint32_t i = 0; i < ids.size(); ++i) {
    if (TimerIdIndex(ids[i].value) % kChunk != 0) {
      ASSERT_TRUE(q->Cancel(ids[i]));
    }
  }
  EXPECT_EQ(q->TrimSlab(), 0u);
  EXPECT_EQ(q->slab_stats().live, 3u);
  // The survivors are still cancellable (links and ids intact).
  for (uint32_t i = 0; i < ids.size(); ++i) {
    if (TimerIdIndex(ids[i].value) % kChunk == 0) {
      EXPECT_TRUE(q->Cancel(ids[i]));
    }
  }
}

TEST_P(SlabTrimTest, StaleIdStaysStaleAcrossRematerialize) {
  auto q = MakeQueue();
  // Mint an id, retire it, trim its chunk away, then regrow the chunk: the
  // old id must not cancel (or alias) the new occupant of the same slot,
  // even though the chunk's storage was rebuilt from scratch.
  TimerId stale = q->Schedule(100, [] {});
  ASSERT_TRUE(q->Cancel(stale));
  ASSERT_GE(q->TrimSlab(), 1u);
  EXPECT_FALSE(q->Cancel(stale));  // chunk gone: stale by construction

  int fired = 0;
  TimerId fresh = q->Schedule(50, [&] { ++fired; });
  // Same slot as before (the re-materialized chunk hands out low indices
  // first), but a generation at or past the floor the release recorded.
  EXPECT_EQ(TimerIdIndex(fresh.value), TimerIdIndex(stale.value));
  EXPECT_NE(TimerIdGeneration(fresh.value), TimerIdGeneration(stale.value));
  EXPECT_FALSE(q->Cancel(stale));  // must not hit the new timer
  EXPECT_EQ(q->ExpireUpTo(60), 1u);
  EXPECT_EQ(fired, 1);
}

TEST_P(SlabTrimTest, FacilityExposesSlabOccupancyAndTrim) {
  SoftTimerFacility::Config cfg;
  // A fixed manual clock is unnecessary: we never advance time.
  class ZeroClock : public ClockSource {
   public:
    uint64_t NowTicks() const override { return 0; }
    uint64_t ResolutionHz() const override { return 1'000'000; }
  } clock;
  SoftTimerFacility facility(&clock, cfg);

  std::vector<SoftEventId> ids;
  for (uint32_t i = 0; i < 2 * kChunk; ++i) {
    ids.push_back(facility.ScheduleSoftEvent(
        1'000, [](const SoftTimerFacility::FireInfo&) {}));
  }
  EXPECT_EQ(facility.stats().slab_live, 2 * kChunk);
  EXPECT_GE(facility.stats().slab_capacity, 2 * kChunk);
  for (SoftEventId id : ids) {
    ASSERT_TRUE(facility.CancelSoftEvent(id));
  }
  EXPECT_EQ(facility.stats().slab_live, 0u);
  EXPECT_GE(facility.TrimSlabStorage(), 2u);
  EXPECT_LT(facility.stats().slab_capacity, 2 * kChunk);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SlabTrimTest,
                         ::testing::Values(QueueRow::kHeap),
                         [](const ::testing::TestParamInfo<QueueRow>&) {
                           return "Heap";
                         });

}  // namespace
}  // namespace softtimer
