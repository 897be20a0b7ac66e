// Randomized stress/property tests for SoftTimerFacility: exactly-once
// dispatch, no lost or duplicated events under mixed schedule/cancel churn,
// monotone fire ticks, and correct behaviour when handlers schedule and
// cancel their peers.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/core/clock_source.h"
#include "src/core/soft_timer_facility.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "tests/queue_row.h"

namespace softtimer {
namespace {

class FacilityStress : public ::testing::TestWithParam<QueueRow> {};

TEST_P(FacilityStress, ExactlyOnceDispatchUnderChurn) {
  Simulator sim;
  SimClockSource clock(&sim, 1'000'000);
  SoftTimerFacility facility(&clock, SoftTimerFacility::Config{});
  Rng rng(2024);

  std::set<uint64_t> expected;   // keys that must eventually fire
  std::set<uint64_t> fired;      // keys that did fire
  std::vector<std::pair<uint64_t, SoftEventId>> cancellable;
  uint64_t next_key = 1;
  uint64_t last_fire_tick = 0;

  for (int step = 0; step < 30'000; ++step) {
    double dice = rng.NextDouble();
    if (dice < 0.45) {
      uint64_t key = next_key++;
      uint64_t t = rng.UniformU64(2'500);
      SoftEventId id = facility.ScheduleSoftEvent(
          t, [&, key](const SoftTimerFacility::FireInfo& info) {
            EXPECT_TRUE(fired.insert(key).second) << "double dispatch of " << key;
            EXPECT_GE(info.fired_tick, last_fire_tick);
            last_fire_tick = info.fired_tick;
          });
      expected.insert(key);
      cancellable.emplace_back(key, id);
    } else if (dice < 0.55 && !cancellable.empty()) {
      size_t idx = rng.UniformU64(cancellable.size());
      auto [key, id] = cancellable[idx];
      if (facility.CancelSoftEvent(id)) {
        EXPECT_EQ(fired.count(key), 0u) << "cancelled an already-fired event";
        expected.erase(key);
      }
      cancellable.erase(cancellable.begin() + static_cast<long>(idx));
    } else {
      sim.RunFor(rng.ExpDuration(SimDuration::Micros(25)));
      facility.OnTriggerState(TriggerSource::kSyscall);
    }
    // Periodic backup so nothing waits forever.
    if (step % 100 == 99) {
      sim.RunFor(SimDuration::Millis(1));
      facility.OnBackupInterrupt();
    }
  }
  // Drain.
  sim.RunFor(SimDuration::Seconds(1));
  facility.OnBackupInterrupt();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(facility.pending_count(), 0u);
  EXPECT_EQ(facility.stats().dispatches, expected.size());
}

TEST_P(FacilityStress, HandlersSchedulingAndCancellingPeers) {
  Simulator sim;
  SimClockSource clock(&sim, 1'000'000);
  SoftTimerFacility facility(&clock, SoftTimerFacility::Config{});
  Rng rng(7);

  int fires = 0;
  std::vector<SoftEventId> victims;
  std::function<void(const SoftTimerFacility::FireInfo&)> chaotic =
      [&](const SoftTimerFacility::FireInfo&) {
        ++fires;
        // Cancel a random earlier victim (may already be gone).
        if (!victims.empty()) {
          facility.CancelSoftEvent(victims[rng.UniformU64(victims.size())]);
        }
        // Schedule a victim and a successor.
        victims.push_back(
            facility.ScheduleSoftEvent(rng.UniformU64(500) + 1,
                                       [](const SoftTimerFacility::FireInfo&) {}));
        if (fires < 2'000) {
          facility.ScheduleSoftEvent(rng.UniformU64(50) + 1, chaotic);
        }
      };
  facility.ScheduleSoftEvent(1, chaotic);

  for (int i = 0; i < 400'000 && fires < 2'000; ++i) {
    sim.RunFor(SimDuration::Micros(7));
    facility.OnTriggerState(TriggerSource::kTrap);
  }
  EXPECT_EQ(fires, 2'000);
}

INSTANTIATE_TEST_SUITE_P(Backends, FacilityStress,
                         ::testing::Values(QueueRow::kHeap),
                         [](const ::testing::TestParamInfo<QueueRow>&) {
                           return "heap";
                         });

}  // namespace
}  // namespace softtimer
