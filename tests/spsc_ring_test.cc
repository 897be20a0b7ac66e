// Edge-case coverage for SpscRing (src/core/spsc_ring.h): capacity
// rounding, index wraparound across the counter/mask boundary, the
// full-ring rejection contract (the value must be left intact, which is
// what lets SpscChannel push it into the ring it grows), slot-recycling
// resource drops, and destruction with undrained elements; and for
// SpscChannel: growth, FIFO across rings, the linked-ring leftover probe
// and destruction of every ring. The cross-thread protocol itself is
// verified exhaustively by tests/model_check_test.cc; this file pins the
// single-threaded semantics those model tests assume.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/spsc_ring.h"

namespace softtimer {
namespace {

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRingTest, FifoAcrossManyWraparounds) {
  SpscRing<int> ring(4);
  int out = 0;
  int next_push = 0;
  int next_pop = 0;
  // Interleave bursts so head/tail lap the 4-slot buffer many times and
  // every slot index gets reused in both roles.
  for (int round = 0; round < 64; ++round) {
    int burst = (round % 4) + 1;
    for (int i = 0; i < burst; ++i) {
      int v = next_push;
      ASSERT_TRUE(ring.TryPush(std::move(v)));
      ++next_push;
    }
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.TryPop(out));
      EXPECT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  EXPECT_TRUE(ring.EmptyRelaxed());
  EXPECT_FALSE(ring.TryPop(out));
}

TEST(SpscRingTest, FullRingRejectsAndLeavesValueIntact) {
  SpscRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.TryPush(std::vector<int>{1}));
  ASSERT_TRUE(ring.TryPush(std::vector<int>{2}));
  // The rejected value must not be consumed: the caller still owns it and
  // may retry, reroute, or destroy it (ShardedSoftTimerRuntime counts the
  // reject and returns the handler to the producer).
  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(ring.TryPush(std::move(v)));
  EXPECT_EQ(v.size(), 3u);

  std::vector<int> out;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, (std::vector<int>{1}));
  EXPECT_TRUE(ring.TryPush(std::move(v)));
  EXPECT_TRUE(v.empty());  // accepted push consumes the value
}

TEST(SpscRingTest, PopResetsSlotSoResourcesDropEagerly) {
  // A popped slot must not keep the moved-from payload's resources alive
  // until the slot is overwritten a lap later: TryPop reassigns T{}.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  SpscRing<std::shared_ptr<int>> ring(4);
  ASSERT_TRUE(ring.TryPush(std::move(token)));
  {
    std::shared_ptr<int> out;
    ASSERT_TRUE(ring.TryPop(out));
    ASSERT_TRUE(out);
    EXPECT_EQ(*out, 42);
  }
  // `out` died and the slot was reset: nothing references the payload.
  EXPECT_TRUE(watch.expired());
}

TEST(SpscRingTest, DestructionDestroysUndrainedElements) {
  // Undrained commands die with their ring (the runtime's documented
  // shutdown contract): destruction runs, nothing leaks, nothing "fires".
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    SpscRing<std::shared_ptr<int>> ring(2);
    ASSERT_TRUE(ring.TryPush(std::move(token)));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SpscRingTest, EmptyRelaxedTracksOccupancy) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.EmptyRelaxed());
  ASSERT_TRUE(ring.TryPush(1));
  EXPECT_FALSE(ring.EmptyRelaxed());
  int out = 0;
  ASSERT_TRUE(ring.TryPop(out));
  EXPECT_TRUE(ring.EmptyRelaxed());
}

TEST(SpscRingTest, CapacityOneRingAlternatesPushPop) {
  SpscRing<int> ring(1);
  int out = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPush(int{i}));
    EXPECT_FALSE(ring.TryPush(int{99}));  // full at one element
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
    EXPECT_FALSE(ring.TryPop(out));  // empty again
  }
}

TEST(SpscChannelTest, FullRingGrowsAndKeepsFifoAcrossRings) {
  // Nothing drains while 1 + 2 + 4 elements go in: the 2nd and the 4th
  // push each find their ring full and double the channel.
  SpscChannel<int> channel(1);
  int grew = 0;
  for (int v = 0; v < 7; ++v) {
    grew += channel.Push(int{v}) ? 1 : 0;
  }
  EXPECT_EQ(grew, 2);
  EXPECT_FALSE(channel.EmptyRelaxed());
  int out = -1;
  for (int v = 0; v < 7; ++v) {
    ASSERT_TRUE(channel.TryPop(out));
    EXPECT_EQ(out, v);
  }
  EXPECT_FALSE(channel.TryPop(out));
  EXPECT_TRUE(channel.EmptyRelaxed());
  EXPECT_EQ(channel.capacity(), 4u);  // the consumer reached the last ring
  // The last ring is the channel now: it takes a ring-full without growing.
  for (int v = 0; v < 4; ++v) {
    EXPECT_FALSE(channel.Push(int{v}));
  }
}

TEST(SpscChannelTest, EmptyOldRingStillReportsTheLinkedRing) {
  // The leftover probe of a bounded drain: an emptied ring with a link
  // behind it is not empty.
  SpscChannel<int> channel(1);
  ASSERT_FALSE(channel.Push(1));
  ASSERT_TRUE(channel.Push(2));
  int out = 0;
  ASSERT_TRUE(channel.TryPop(out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(channel.EmptyRelaxed());
  ASSERT_TRUE(channel.TryPop(out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(channel.EmptyRelaxed());
}

TEST(SpscChannelTest, DestructionDestroysUndrainedElementsInEveryRing) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  std::weak_ptr<int> watch_first = first;
  std::weak_ptr<int> watch_second = second;
  {
    SpscChannel<std::shared_ptr<int>> channel(1);
    ASSERT_FALSE(channel.Push(std::move(first)));
    ASSERT_TRUE(channel.Push(std::move(second)));  // lands in a new ring
    EXPECT_FALSE(watch_second.expired());
  }
  EXPECT_TRUE(watch_first.expired());
  EXPECT_TRUE(watch_second.expired());
}

}  // namespace
}  // namespace softtimer
