#include "src/core/poll_governor.h"

#include <gtest/gtest.h>

#include "src/sim/random.h"

namespace softtimer {
namespace {

PollGovernor::Config BaseConfig() {
  PollGovernor::Config c;
  c.aggregation_quota = 1.0;
  c.min_interval_ticks = 10;
  c.max_interval_ticks = 4000;
  c.initial_interval_ticks = 50;
  return c;
}

TEST(PollGovernorTest, ConvergesToQuotaUnderPoissonArrivals) {
  for (double quota : {1.0, 2.0, 5.0, 10.0}) {
    PollGovernor::Config c = BaseConfig();
    c.aggregation_quota = quota;
    PollGovernor g(c);
    Rng rng(17);
    const double rate = 0.008;  // packets per tick (8k pkts/s at 1 MHz)
    uint64_t interval = c.initial_interval_ticks;
    double carry = 0.0;
    double found_sum = 0;
    int polls = 0;
    for (int i = 0; i < 3000; ++i) {
      carry += static_cast<double>(interval) * rate;
      size_t found = static_cast<size_t>(carry);
      carry -= static_cast<double>(found);
      // Settle first, then measure.
      if (i > 500) {
        found_sum += static_cast<double>(found);
        ++polls;
      }
      interval = g.OnPoll(found, interval);
    }
    EXPECT_NEAR(found_sum / polls, quota, quota * 0.2) << "quota " << quota;
  }
}

TEST(PollGovernorTest, RespectsIntervalClamp) {
  PollGovernor::Config c = BaseConfig();
  PollGovernor g(c);
  // A flood of packets drives the interval to the floor.
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(g.OnPoll(1000, g.current_interval_ticks()), c.min_interval_ticks);
  }
  EXPECT_EQ(g.current_interval_ticks(), c.min_interval_ticks);
  // Silence drives it to the ceiling.
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(g.OnPoll(0, g.current_interval_ticks()), c.max_interval_ticks);
  }
  EXPECT_EQ(g.current_interval_ticks(), c.max_interval_ticks);
}

TEST(PollGovernorTest, StepFactorBoundsChangeRate) {
  PollGovernor::Config c = BaseConfig();
  c.max_step_factor = 2.0;
  PollGovernor g(c);
  uint64_t before = g.current_interval_ticks();
  g.OnPoll(10'000, before);  // enormous convoy
  EXPECT_GE(g.current_interval_ticks(), before / 2);
  before = g.current_interval_ticks();
  g.OnPoll(0, before);
  EXPECT_LE(g.current_interval_ticks(), before * 2);
}

TEST(PollGovernorTest, RatioOfSumsHandlesBurstyArrivals) {
  // Convoys: most polls find nothing, every 8th finds a burst of 8. A
  // correct rate estimate is still 1 packet/interval on average.
  PollGovernor::Config c = BaseConfig();
  PollGovernor g(c);
  uint64_t interval = c.initial_interval_ticks;
  for (int i = 0; i < 2000; ++i) {
    size_t found = (i % 8 == 7) ? 8 : 0;
    interval = g.OnPoll(found, 125);  // elapsed fixed: rate = 1/125 per tick
  }
  EXPECT_EQ(interval, g.current_interval_ticks());
  EXPECT_NEAR(g.rate_estimate(), 1.0 / 125.0, 0.25 / 125.0);
}

TEST(PollGovernorTest, ResetRateForgetsHistory) {
  PollGovernor g(BaseConfig());
  for (int i = 0; i < 50; ++i) {
    g.OnPoll(0, 1000);  // long silence
  }
  g.ResetRate();
  EXPECT_EQ(g.rate_estimate(), 0.0);
  g.OnPoll(10, 100);
  EXPECT_NEAR(g.rate_estimate(), 0.1, 1e-9);
}

TEST(PollGovernorTest, FirstPollAfterResetIgnoresIdleGap) {
  // Converge to a steady interval under a healthy load, pause (drought or
  // interrupt-mode spell), then resume: the first poll reports the whole
  // pause as its elapsed time. After ResetRate that gap must not enter the
  // rate estimate, so the interval stays within one step of its pre-pause
  // value instead of being slammed toward the maximum.
  PollGovernor::Config c = BaseConfig();
  PollGovernor g(c);
  uint64_t interval = c.initial_interval_ticks;
  for (int i = 0; i < 500; ++i) {
    interval = g.OnPoll(1, interval);  // exactly quota: steady state
  }
  uint64_t steady = g.current_interval_ticks();
  g.ResetRate();
  const uint64_t idle_gap = 500'000;  // half a second of no polling
  uint64_t after = g.OnPoll(1, idle_gap);
  EXPECT_LE(after, static_cast<uint64_t>(
                       static_cast<double>(steady) * c.max_step_factor + 1));
  // One genuine-gap datapoint must not dominate the estimate either.
  EXPECT_GE(g.rate_estimate(), 1.0 / static_cast<double>(steady) / c.max_step_factor);

  // Control: the same gap without ResetRate poisons the estimate and drives
  // the interval up (this is the failure mode the reset exists to prevent).
  PollGovernor bad(c);
  uint64_t bad_interval = c.initial_interval_ticks;
  for (int i = 0; i < 500; ++i) {
    bad_interval = bad.OnPoll(1, bad_interval);
  }
  uint64_t bad_after = bad.OnPoll(1, idle_gap);
  EXPECT_GT(bad_after, after);
}

TEST(PollGovernorTest, ReEngageReclampsStaleInterval) {
  // After a pause (drought, interrupt-mode spell) the interval left behind by
  // quiet traffic is stale. ReEngage restarts at min(current, initial),
  // re-clamped to the Config bounds, and forgets the rate history.
  PollGovernor::Config c = BaseConfig();
  PollGovernor g(c);
  for (int i = 0; i < 100; ++i) {
    g.OnPoll(0, g.current_interval_ticks());  // silence: walk out to max
  }
  ASSERT_EQ(g.current_interval_ticks(), c.max_interval_ticks);
  g.ReEngage();
  EXPECT_EQ(g.current_interval_ticks(), c.initial_interval_ticks);
  EXPECT_EQ(g.rate_estimate(), 0.0);

  // An interval already below the initial survives the re-engage: resuming
  // under heavy load must not slow the stream down.
  for (int i = 0; i < 100; ++i) {
    g.OnPoll(1000, g.current_interval_ticks());  // flood: walk down to min
  }
  ASSERT_EQ(g.current_interval_ticks(), c.min_interval_ticks);
  g.ReEngage();
  EXPECT_EQ(g.current_interval_ticks(), c.min_interval_ticks);

  // The first post-ReEngage poll reports the whole pause as elapsed; with the
  // history forgotten it must not slam the interval toward the maximum.
  uint64_t after = g.OnPoll(1, 500'000);
  EXPECT_LE(after, static_cast<uint64_t>(
                       static_cast<double>(c.min_interval_ticks) *
                           c.max_step_factor +
                       1));
}

TEST(PollGovernorTest, ZeroElapsedIsTolerated) {
  PollGovernor g(BaseConfig());
  EXPECT_GE(g.OnPoll(5, 0), BaseConfig().min_interval_ticks);
}

TEST(PollGovernorTest, Counters) {
  PollGovernor g(BaseConfig());
  g.OnPoll(3, 100);
  g.OnPoll(2, 100);
  EXPECT_EQ(g.polls(), 2u);
  EXPECT_EQ(g.packets_found_total(), 5u);
}

}  // namespace
}  // namespace softtimer
