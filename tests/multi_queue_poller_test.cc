// MultiQueuePoller: M queues on N cores through the QueueClaim protocol.
// Single-thread tests pin the scan/claim/govern semantics deterministically;
// the real-thread suites (cross-thread label / tsan preset) check claim
// exclusivity, packet conservation, and busy-owner absorption; the final
// tests drive the poller through ShardedRtHost::Config::queue_work. The
// protocol's interleaving-level properties are proven separately by
// tests/model_check_test.cc.

#include "src/net/multi_queue_poller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/rt/sharded_rt_host.h"

namespace softtimer {
namespace {

PollGovernor::Config TestGovernor() {
  PollGovernor::Config g;
  g.aggregation_quota = 2.0;
  g.min_interval_ticks = 10;
  g.max_interval_ticks = 1'000;
  g.initial_interval_ticks = 100;
  return g;
}

// Yields a fixed packet count per drain (claim-protected state only).
class FixedQueue : public MultiQueuePoller::Queue {
 public:
  explicit FixedQueue(size_t per_poll) : per_poll_(per_poll) {}
  size_t Drain(size_t max_packets, uint64_t /*now_tick*/) override {
    ++drains_;
    return std::min(per_poll_, max_packets);
  }
  uint64_t drains() const { return drains_; }

 private:
  size_t per_poll_;
  uint64_t drains_ = 0;
};

// Open-loop producer/consumer queue that also detects concurrent drains
// (which the claim protocol must make impossible).
class ProducerQueue : public MultiQueuePoller::Queue {
 public:
  void Produce(uint64_t n) {
    // ordering: producer-side counter; the drain side only needs the count,
    // not any payload publication (there is none).
    available_.fetch_add(n, std::memory_order_relaxed);
  }
  size_t Drain(size_t max_packets, uint64_t /*now_tick*/) override {
    if (in_drain_.fetch_add(1, std::memory_order_acq_rel) != 0) {
      overlap_.store(true, std::memory_order_relaxed);
    }
    // ordering: see Produce.
    uint64_t avail = available_.load(std::memory_order_relaxed);
    uint64_t take = std::min<uint64_t>(avail, max_packets);
    available_.fetch_sub(take, std::memory_order_relaxed);
    drained_ += take;  // claim-protected plain state
    in_drain_.fetch_sub(1, std::memory_order_acq_rel);
    return static_cast<size_t>(take);
  }
  uint64_t drained() const { return drained_; }
  uint64_t available() const {
    return available_.load(std::memory_order_relaxed);
  }
  bool overlapped() const { return overlap_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> available_{0};
  std::atomic<int> in_drain_{0};
  std::atomic<bool> overlap_{false};
  uint64_t drained_ = 0;
};

TEST(MultiQueuePollerTest, ServesMostOverdueQueueFirst) {
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  MultiQueuePoller poller(cfg);
  FixedQueue q0(1), q1(1), q2(1);
  poller.AddQueue(&q0);
  poller.AddQueue(&q1);
  poller.AddQueue(&q2);
  // Stagger the deadlines: q1 most overdue, then q2, then q0.
  ASSERT_TRUE(poller.ClaimQueueForTest(0, 0));
  poller.ReleaseQueueForTest(0, 20);
  ASSERT_TRUE(poller.ClaimQueueForTest(1, 0));
  poller.ReleaseQueueForTest(1, 5);
  ASSERT_TRUE(poller.ClaimQueueForTest(2, 0));
  poller.ReleaseQueueForTest(2, 10);

  EXPECT_EQ(poller.PollOnce(0, 100), 1u);
  EXPECT_EQ(poller.queue_stats(1).polls, 1u);
  EXPECT_EQ(poller.PollOnce(0, 100), 1u);
  EXPECT_EQ(poller.queue_stats(2).polls, 1u);
  EXPECT_EQ(poller.PollOnce(0, 100), 1u);
  EXPECT_EQ(poller.queue_stats(0).polls, 1u);
  // Everything rescheduled into the future now.
  EXPECT_EQ(poller.PollOnce(0, 100), 0u);
}

TEST(MultiQueuePollerTest, GateSkipsScanWhenNothingDue) {
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  MultiQueuePoller poller(cfg);
  FixedQueue q0(0), q1(0);
  poller.AddQueue(&q0);
  poller.AddQueue(&q1);
  // Serve both (found=0 pushes intervals up); then one scan miss advances
  // the gate, and the call after that never scans.
  poller.PollOnce(0, 1'000);
  poller.PollOnce(0, 1'000);
  EXPECT_EQ(poller.PollOnce(0, 1'000), 0u);
  EXPECT_EQ(poller.core_stats(0).scan_misses, 1u);
  uint64_t due = poller.next_due_tick();
  EXPECT_GT(due, 1'000u);
  EXPECT_EQ(poller.PollOnce(0, 1'001), 0u);
  EXPECT_EQ(poller.core_stats(0).gate_skips, 1u);
  EXPECT_EQ(poller.core_stats(0).scan_misses, 1u);  // unchanged: no scan
  // At the gate tick the queues are served again.
  EXPECT_GT(due, 0u);
  poller.PollOnce(0, due);
  EXPECT_EQ(poller.queue_stats(0).polls + poller.queue_stats(1).polls, 3u);
}

TEST(MultiQueuePollerTest, ClaimedQueueIsSkippedThenAbsorbedAfterRelease) {
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  MultiQueuePoller poller(cfg);
  FixedQueue q0(1), q1(1);
  poller.AddQueue(&q0);
  poller.AddQueue(&q1);
  // A "busy owner" (core 7) holds queue 0.
  ASSERT_TRUE(poller.ClaimQueueForTest(0, 7));
  // Core 0 can only serve queue 1, and a second call finds nothing
  // claimable even though queue 0 is due.
  EXPECT_EQ(poller.PollOnce(0, 50), 1u);
  EXPECT_EQ(poller.queue_stats(1).polls, 1u);
  EXPECT_EQ(poller.queue_stats(0).polls, 0u);
  EXPECT_EQ(poller.PollOnce(0, 50), 0u);
  // The gate must NOT have advanced past the claimed-but-due queue's
  // deadline (its stale deadline word holds 0, keeping the gate conservative).
  EXPECT_LE(poller.next_due_tick(), 50u);
  // Owner releases it still-due; core 0 absorbs it with no handoff message.
  poller.ReleaseQueueForTest(0, 0);
  EXPECT_EQ(poller.PollOnce(0, 50), 1u);
  EXPECT_EQ(poller.queue_stats(0).polls, 1u);
  EXPECT_EQ(poller.queue_stats(0).last_owner, 1u);  // core 0 = owner word 1
}

TEST(MultiQueuePollerTest, GovernorAdaptationStaysPerQueue) {
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  cfg.max_per_poll = 64;
  MultiQueuePoller poller(cfg);
  FixedQueue busy(32), quiet(0);
  poller.AddQueue(&busy);
  poller.AddQueue(&quiet);
  uint64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    now += 10;
    while (poller.PollOnce(0, now) != 0) {
    }
  }
  // The busy queue's interval collapses toward min (quota long exceeded);
  // the quiet queue's stretches toward max. One shared governor would
  // average them; per-queue governors must diverge.
  EXPECT_LT(poller.queue_stats(0).current_interval_ticks,
            poller.queue_stats(1).current_interval_ticks);
  EXPECT_EQ(poller.queue_stats(0).current_interval_ticks,
            cfg.governor.min_interval_ticks);
  EXPECT_GT(poller.queue_stats(1).current_interval_ticks,
            cfg.governor.initial_interval_ticks);
  // achieved_quota reflects the mix (busy queue found ~32/poll).
  EXPECT_GT(poller.achieved_quota(), 1.0);
}

TEST(MultiQueuePollerTest, ThreadsNeverOverlapAndConservePackets) {
  constexpr size_t kQueues = 8;
  constexpr size_t kCores = 3;
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  cfg.governor.min_interval_ticks = 1;
  cfg.max_cores = kCores;
  MultiQueuePoller poller(cfg);
  std::vector<std::unique_ptr<ProducerQueue>> queues;
  for (size_t i = 0; i < kQueues; ++i) {
    queues.push_back(std::make_unique<ProducerQueue>());
    poller.AddQueue(queues.back().get());
  }
  std::atomic<uint64_t> tick{1};
  std::atomic<bool> stop{false};
  std::atomic<size_t> cores_running{0};
  std::thread producer([&] {
    // Start producing only once every core polls: where threads start
    // slowly (TSan), the producer could otherwise finish all 200k packets
    // and stop the run before some core made its first poll.
    while (cores_running.load() < kCores) {
      std::this_thread::yield();
    }
    uint64_t produced = 0;
    while (!stop.load(std::memory_order_relaxed) && produced < 200'000) {
      for (auto& q : queues) {
        q->Produce(25);
        produced += 25;
      }
      tick.fetch_add(50, std::memory_order_relaxed);
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> cores;
  for (size_t c = 0; c < kCores; ++c) {
    cores.emplace_back([&, c] {
      cores_running.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        if (poller.PollOnce(static_cast<uint32_t>(c),
                            tick.load(std::memory_order_relaxed)) == 0) {
          std::this_thread::yield();
        }
      }
    });
  }
  producer.join();
  for (auto& t : cores) {
    t.join();
  }
  uint64_t drained = 0;
  uint64_t leftover = 0;
  for (size_t i = 0; i < kQueues; ++i) {
    EXPECT_FALSE(queues[i]->overlapped()) << "queue " << i << " double-polled";
    EXPECT_GT(poller.queue_stats(i).polls, 0u) << "queue " << i << " starved";
    drained += queues[i]->drained();
    leftover += queues[i]->available();
  }
  EXPECT_EQ(drained + leftover, 200'000u);
  EXPECT_EQ(poller.total_packets(), drained);
  uint64_t core_polls = 0;
  for (uint32_t c = 0; c < kCores; ++c) {
    core_polls += poller.core_stats(c).polls;
  }
  uint64_t queue_polls = 0;
  for (size_t i = 0; i < kQueues; ++i) {
    queue_polls += poller.queue_stats(i).polls;
  }
  EXPECT_EQ(core_polls, queue_polls);
}

TEST(MultiQueuePollerTest, IdleCoresAbsorbQueuesFromBusyOwner) {
  MultiQueuePoller::Config cfg;
  cfg.governor = TestGovernor();
  cfg.governor.min_interval_ticks = 1;
  cfg.max_cores = 2;
  MultiQueuePoller poller(cfg);
  ProducerQueue q0, q1, q2;
  poller.AddQueue(&q0);
  poller.AddQueue(&q1);
  poller.AddQueue(&q2);
  q0.Produce(1'000);
  q1.Produce(1'000);
  q2.Produce(1'000);
  // Core 1 "wedges" holding queue 0 (e.g. its shard got preempted mid-poll).
  ASSERT_TRUE(poller.ClaimQueueForTest(0, 1));
  // Core 0 alone drains the other two dry.
  uint64_t now = 1;
  for (int i = 0; i < 2'000 && (q1.available() || q2.available()); ++i) {
    poller.PollOnce(0, now);
    now += 2;
  }
  EXPECT_EQ(q1.available(), 0u);
  EXPECT_EQ(q2.available(), 0u);
  EXPECT_EQ(q0.drained(), 0u);
  // The wedged owner recovers and releases; core 0 absorbs queue 0 too.
  poller.ReleaseQueueForTest(0, 0);
  for (int i = 0; i < 2'000 && q0.available(); ++i) {
    poller.PollOnce(0, now);
    now += 2;
  }
  EXPECT_EQ(q0.available(), 0u);
  EXPECT_GT(poller.queue_stats(0).polls, 0u);
}

// --- ShardedRtHost integration ------------------------------------------

// Two shards serve six governed queues under an open-loop producer; with
// `spinning_shard0`, shard 0 spins beside a sleeping shard 1.
void ServeQueuesOnTwoShards(bool spinning_shard0) {
  constexpr size_t kQueues = 6;
  MultiQueuePoller::Config pcfg;
  pcfg.governor = TestGovernor();
  pcfg.governor.min_interval_ticks = 50;       // 50 us at 1 MHz measure
  pcfg.governor.max_interval_ticks = 2'000;    // 2 ms
  pcfg.governor.initial_interval_ticks = 200;
  pcfg.max_cores = 4;
  MultiQueuePoller poller(pcfg);
  std::vector<std::unique_ptr<ProducerQueue>> queues;
  for (size_t i = 0; i < kQueues; ++i) {
    queues.push_back(std::make_unique<ProducerQueue>());
    poller.AddQueue(queues.back().get());
  }

  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 50;  // 20 ms backup: queue service must not wait
                                // for it (the gate bounds the sleeps)
  cfg.queue_work.poll = [&](size_t shard, uint64_t now) {
    return poller.PollOnce(static_cast<uint32_t>(shard), now);
  };
  cfg.queue_work.next_due = [&] { return poller.next_due_tick(); };
  cfg.shard_profiles.resize(2);
  cfg.shard_profiles[0].isolated = spinning_shard0;
  ShardedRtHost host(cfg);
  host.Start();

  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& q : queues) {
        q->Produce(10);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  producer.join();
  // Give the shards one more beat to drain the tail, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  host.Stop();

  uint64_t produced = 0;
  uint64_t drained = 0;
  for (size_t i = 0; i < kQueues; ++i) {
    EXPECT_FALSE(queues[i]->overlapped()) << "queue " << i;
    EXPECT_GT(poller.queue_stats(i).polls, 0u) << "queue " << i << " starved";
    drained += queues[i]->drained();
    produced += queues[i]->drained() + queues[i]->available();
  }
  EXPECT_GT(drained, 0u);
  // The 20 ms backup alone would allow ~15 service rounds in 300 ms; the
  // gate-bounded sleeps must do far better for 6 governed queues. Loose
  // bound for loaded CI: at least double the backup-only rate.
  uint64_t host_queue_polls = 0;
  for (size_t s = 0; s < host.num_shards(); ++s) {
    host_queue_polls += host.shard_loop_stats(s).queue_polls;
  }
  EXPECT_GT(host_queue_polls, 30u);
  // The shards kept up with the offered load (loose: CI shares one core
  // between producer, shards, and the test thread).
  EXPECT_GE(drained * 2, produced);
}

TEST(MultiQueuePollerHostTest, ShardsServeQueuesAndBoundSleepsByGate) {
  {
    SCOPED_TRACE("both shards sleep");
    ServeQueuesOnTwoShards(/*spinning_shard0=*/false);
  }
  {
    SCOPED_TRACE("shard 0 spins");
    ServeQueuesOnTwoShards(/*spinning_shard0=*/true);
  }
}

TEST(MultiQueuePollerHostTest, QuietQueuesDoNotBusySpinTheShards) {
  MultiQueuePoller::Config pcfg;
  pcfg.governor = TestGovernor();
  pcfg.governor.min_interval_ticks = 100;
  pcfg.governor.max_interval_ticks = 5'000;  // 5 ms cap at 1 MHz
  MultiQueuePoller poller(pcfg);
  FixedQueue q0(0), q1(0);
  poller.AddQueue(&q0);
  poller.AddQueue(&q1);

  ShardedRtHost::Config cfg;
  cfg.num_shards = 2;
  cfg.interrupt_clock_hz = 100;
  cfg.queue_work.poll = [&](size_t shard, uint64_t now) {
    return poller.PollOnce(static_cast<uint32_t>(shard), now);
  };
  cfg.queue_work.next_due = [&] { return poller.next_due_tick(); };
  ShardedRtHost host(cfg);
  host.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  host.Stop();
  // With no packets the governors stretch toward max_interval and the
  // shards sleep between queue deadlines: the loops must have parked (sleeps
  // accrue) instead of degenerating into a busy spin.
  uint64_t sleeps = 0;
  for (size_t s = 0; s < host.num_shards(); ++s) {
    sleeps += host.shard_loop_stats(s).sleeps;
  }
  EXPECT_GT(sleeps, 0u);
  EXPECT_GT(q0.drains(), 0u);  // still served, at the governed cadence
  EXPECT_GT(q1.drains(), 0u);
}

}  // namespace
}  // namespace softtimer
