// Pacing on real shard threads, composed the way the composed benchmark
// composes it: each ShardedRtHost shard builds its own PacingWheel +
// PacingWheelHost on its loop thread (shard_setup), drains it
// opportunistically from shard_tick, and another thread mutates a flow by
// sending the owning shard a delta-0 cross-core soft event whose handler
// calls the shard's host. The wheel and host stay single-threaded: every
// call to them runs on the shard's loop thread.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/pacing/pacing_wheel.h"
#include "src/pacing/pacing_wheel_host.h"
#include "src/rt/sharded_rt_host.h"

namespace softtimer {
namespace {

class CountingSink : public PacingWheel::BatchSink {
 public:
  void OnPacedBatch(const PacedEmit* batch, size_t count,
                    uint64_t) override {
    for (size_t i = 0; i < count; ++i) {
      packets.fetch_add(batch[i].packets, std::memory_order_relaxed);
    }
    batches.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> packets{0};
  std::atomic<uint64_t> batches{0};
};

PacingWheel::Config WheelCfg() {
  PacingWheel::Config c;
  c.quantum_ticks = 8;
  c.num_slots = 1024;
  return c;
}

PacedFlowConfig Flow(uint64_t target, uint64_t min_burst) {
  PacedFlowConfig c;
  c.target_interval_ticks = target;
  c.min_burst_interval_ticks = min_burst;
  return c;
}

// One shard's pacing state, owned by that shard's loop thread.
struct ShardPacing {
  ShardPacing(SoftTimerFacility* facility, CountingSink* sink)
      : wheel(WheelCfg()), host(facility, &wheel) {
    host.set_sink(sink);
  }
  PacingWheel wheel;
  PacingWheelHost host;
  std::vector<PacedFlowId> ids;
};

TEST(ShardedPacingTest, RtHostShardsPaceConcurrently) {
  // The hooks capture a host pointer that is filled in before Start(),
  // breaking the host-config / host construction cycle.
  ShardedRtHost* host_ptr = nullptr;
  CountingSink sinks[2];
  std::unique_ptr<ShardPacing> pacing[2];  // built by shard_setup, then
                                           // published via setup_done
  std::atomic<int> setup_done{0};

  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.shard_profiles.assign(2, {.isolated = true});
  cfg.shard_setup = [&](size_t shard) {
    auto p = std::make_unique<ShardPacing>(
        &host_ptr->runtime().shard_facility(shard), &sinks[shard]);
    for (int i = 0; i < 16; ++i) {
      PacedFlowId id =
          p->host.AddFlow(Flow(500 + 50 * static_cast<uint64_t>(i), 50));
      p->ids.push_back(id);
      p->host.Activate(id, static_cast<uint64_t>(i) * 30);
    }
    pacing[shard] = std::move(p);
    setup_done.fetch_add(1, std::memory_order_release);
  };
  cfg.shard_tick = [&](size_t shard) { pacing[shard]->host.Poll(); };

  ShardedRtHost host(cfg);
  host_ptr = &host;
  host.Start();

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto wait_for = [&](auto pred) {
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pred();
  };
  bool setup_ok =
      wait_for([&] { return setup_done.load(std::memory_order_acquire) == 2; });
  bool paced_ok = setup_ok && wait_for([&] {
    return sinks[0].packets.load() >= 100 && sinks[1].packets.load() >= 100;
  });
  bool rerate_sent = false;
  uint64_t shard1_before_rerate = 0;
  bool advanced_ok = false;
  if (paced_ok) {
    // Re-rate one of shard 1's flows from this thread: the command rides a
    // delta-0 soft event through shard 1's ring and runs on its loop
    // thread, the only thread that touches its wheel.
    auto token = host.RegisterProducer();
    shard1_before_rerate = sinks[1].packets.load();
    PacingWheelHost* target = &pacing[1]->host;
    PacedFlowId flow = pacing[1]->ids[0];
    rerate_sent =
        host.runtime()
            .ScheduleCrossCore(token, 1, 0,
                               [target, flow](const SoftTimerFacility::FireInfo&) {
                                 target->ReRate(flow, 120, 12);
                               })
            .valid();
    advanced_ok = wait_for([&] {
      return sinks[1].packets.load() >= shard1_before_rerate + 50;
    });
  }
  host.Stop();  // join threads before inspecting shard-local state

  EXPECT_TRUE(setup_ok);
  EXPECT_TRUE(paced_ok) << "shard0=" << sinks[0].packets.load()
                        << " shard1=" << sinks[1].packets.load();
  EXPECT_TRUE(rerate_sent);
  EXPECT_TRUE(advanced_ok);
  if (setup_ok) {  // both shards built their pacing state
    EXPECT_EQ(pacing[1]->wheel.stats().re_rates, 1u);
    // Pacing ran on both shards with exactly one armed wheel event each.
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_GE(pacing[s]->host.stats().wheel_events +
                    pacing[s]->host.stats().poll_drains,
                1u);
      EXPECT_LE(host.runtime().shard_facility(s).pending_count(), 1u);
    }
  }
  // The hosts cancel their armed events on destruction, so they go before
  // the runtime that owns the facilities.
  pacing[0].reset();
  pacing[1].reset();
}

}  // namespace
}  // namespace softtimer
