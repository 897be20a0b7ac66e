// Example: the soft-timer facility on real wall-clock time.
//
// Everything else in this repository runs on the simulator; this example
// runs the same SoftTimerFacility against std::chrono::steady_clock on a
// one-shard ShardedRtHost - an ordinary user-space loop, the shape a
// DPDK-style stack would use. The shard spins (an isolated shard, so it
// never sleeps), does small work bursts (its shard_tick hook) and checks
// for due soft events between them; a paced stream targets one event per
// 500 us and we report the achieved intervals and lateness distribution.

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "src/core/adaptive_pacer.h"
#include "src/rt/sharded_rt_host.h"
#include "src/stats/summary_stats.h"

using namespace softtimer;

int main() {
  // A busy loop doing ~20 us work bursts between trigger-state checks.
  volatile uint64_t sink = 0;
  ShardedRtHost::Config cfg;
  cfg.num_shards = 1;
  cfg.shard_profiles.assign(1, {.isolated = true});
  cfg.shard_tick = [&](size_t) {
    for (int i = 0; i < 2'000; ++i) {
      sink = sink + static_cast<uint64_t>(i) * 2654435761u;
    }
  };
  ShardedRtHost host(cfg);
  // Handlers run on the shard's loop thread, which owns this facility.
  SoftTimerFacility& facility = host.runtime().shard_facility(0);
  std::printf("real-time soft timers: measure %llu Hz, backup %llu Hz (X = %llu)\n\n",
              (unsigned long long)facility.MeasureResolution(),
              (unsigned long long)facility.InterruptClockResolution(),
              (unsigned long long)facility.ticks_per_backup_interval());

  AdaptivePacer pacer({500, 100});  // target 500 us, burst floor 100 us
  SummaryStats intervals_us;
  uint64_t last_fire = 0;

  std::function<void(const SoftTimerFacility::FireInfo&)> stream =
      [&](const SoftTimerFacility::FireInfo& info) {
        if (last_fire != 0) {
          intervals_us.Add(static_cast<double>(info.fired_tick - last_fire));
        }
        last_fire = info.fired_tick;
        facility.ScheduleSoftEvent(pacer.OnPacketSent(info.fired_tick), stream);
      };
  pacer.StartTrain(facility.MeasureTime());
  facility.ScheduleSoftEvent(500, stream);

  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  host.Stop();

  const LatencyHistogram& lateness_ticks = host.shard_lateness_raw(0);
  std::printf("paced stream over 400 ms of wall time:\n");
  std::printf("  events fired:        %llu\n", (unsigned long long)lateness_ticks.count());
  std::printf("  achieved interval:   %.1f us mean (target 500), stddev %.1f\n",
              intervals_us.mean(), intervals_us.stddev());
  std::printf("  lateness:            mean %.1f us, max %llu us\n", lateness_ticks.mean(),
              (unsigned long long)lateness_ticks.max());
  std::printf("  trigger-state polls: %llu\n",
              (unsigned long long)host.shard_loop_stats(0).polls);
  return 0;
}
