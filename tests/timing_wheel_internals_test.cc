// Implementation-specific tests for the hashed timing wheel, beyond the
// shared conformance suite: bucket wrap-around, multi-round occupancy,
// coarse granularities, and sustained long-run stress against the heap as
// an oracle.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/sim/random.h"
#include "src/timer/hashed_timing_wheel.h"
#include "src/timer/heap_timer_queue.h"

namespace softtimer {
namespace {

TEST(HashedWheelTest, SmallWheelWrapsManyTimes) {
  // 8 slots, granularity 1: heavy multi-round occupancy.
  HashedTimingWheel w(1, 8);
  std::vector<uint64_t> fired;
  for (uint64_t d : {3u, 11u, 19u, 27u, 5u, 13u}) {
    w.Schedule(d, [&fired, d] { fired.push_back(d); });
  }
  for (uint64_t t = 0; t <= 30; ++t) {
    w.ExpireUpTo(t);
  }
  EXPECT_EQ(fired, (std::vector<uint64_t>{3, 5, 11, 13, 19, 27}));
}

TEST(HashedWheelTest, JumpOverManyEmptySlots) {
  HashedTimingWheel w(1, 16);
  int fired = 0;
  w.Schedule(1'000'000, [&] { ++fired; });
  // Nothing due for a long stretch: ExpireUpTo must stay cheap (covered by
  // the earliest-deadline fast path) and still fire at the right time.
  for (uint64_t t = 0; t < 1'000'000; t += 999) {
    w.ExpireUpTo(t);
  }
  EXPECT_EQ(fired, 0);
  w.ExpireUpTo(1'000'000);
  EXPECT_EQ(fired, 1);
}

TEST(HashedWheelTest, CancelLeavesNeighborsInBucket) {
  HashedTimingWheel w(1, 8);
  // Same bucket (deadline mod 8 == 2), different rounds.
  std::vector<uint64_t> fired;
  TimerId a = w.Schedule(2, [&] { fired.push_back(2); });
  w.Schedule(10, [&] { fired.push_back(10); });
  w.Schedule(18, [&] { fired.push_back(18); });
  EXPECT_TRUE(w.Cancel(a));
  w.ExpireUpTo(20);
  EXPECT_EQ(fired, (std::vector<uint64_t>{10, 18}));
}

class WheelVsHeapStress : public ::testing::TestWithParam<int> {};

TEST_P(WheelVsHeapStress, LongRunMatchesHeapOracle) {
  // Drive a wheel and the heap with the identical operation stream for a
  // long simulated stretch with tiny wheels (maximum wrap pressure) and
  // compare every firing.
  std::unique_ptr<TimerQueue> impl;
  if (GetParam() == 0) {
    impl = std::make_unique<HashedTimingWheel>(1, 4);
  } else {
    impl = std::make_unique<HashedTimingWheel>(16, 8);
  }
  HeapTimerQueue oracle;
  Rng rng(static_cast<uint64_t>(GetParam()) + 5);
  std::vector<uint64_t> fired_impl, fired_oracle;
  uint64_t now = 0;
  uint64_t key = 0;
  std::vector<std::pair<TimerId, TimerId>> live;  // (impl, oracle)

  for (int step = 0; step < 20'000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.5) {
      uint64_t d = now + rng.UniformU64(400);
      uint64_t k = ++key;
      TimerId a = impl->Schedule(d, [&fired_impl, k] { fired_impl.push_back(k); });
      TimerId b = oracle.Schedule(d, [&fired_oracle, k] { fired_oracle.push_back(k); });
      live.emplace_back(a, b);
    } else if (dice < 0.6 && !live.empty()) {
      size_t idx = rng.UniformU64(live.size());
      bool ca = impl->Cancel(live[idx].first);
      bool cb = oracle.Cancel(live[idx].second);
      EXPECT_EQ(ca, cb);
      live.erase(live.begin() + static_cast<long>(idx));
    } else {
      now += rng.UniformU64(40);
      impl->ExpireUpTo(now);
      oracle.ExpireUpTo(now);
      ASSERT_EQ(fired_impl, fired_oracle) << "step " << step;
      ASSERT_EQ(impl->size(), oracle.size());
      ASSERT_EQ(impl->EarliestDeadline(), oracle.EarliestDeadline());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, WheelVsHeapStress, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? "HashedTiny" : "HashedCoarse";
                         });

}  // namespace
}  // namespace softtimer
