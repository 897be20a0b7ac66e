// Cross-shard cancel-vs-fire race for the RtoEngine (run under the tsan
// preset via the `cross-thread` label).
//
// Topology: the engine and its shard live on the owner thread, which sends
// segments and pumps trigger states. A second "NIC" thread delivers ACKs
// the sharded way - as cross-core commands (via ScheduleCrossCore)
// that invoke OnCumulativeAck on the owning shard after a randomized wire
// delay straddling the RTO. Some ACKs land before the RTO fires (the
// cancel path), some after (retransmit already happened; the late ACK
// retires a Karn-marked segment). The engine must survive both arms with
// exact timer accounting and zero stale fires.
//
// The virtual clock only advances once every ACK put on the wire has been
// published as a command, so an ACK's deadline is its send tick plus its
// wire delay however the OS schedules the two threads. Without that, a
// starved NIC thread lets the owner run the clock on until every
// connection exhausts its retransmit budget.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/tcp/rto_engine.h"

namespace softtimer {
namespace {

class AtomicClock : public ClockSource {
 public:
  uint64_t NowTicks() const override {
    return now_.load(std::memory_order_relaxed);
  }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) {
    now_.fetch_add(ticks, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_{0};
};

struct Xorshift {
  uint64_t s;
  explicit Xorshift(uint64_t seed) : s(seed * 2654435761u + 1) {}
  uint64_t Next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

TEST(RtoCrossShardTest, AckRacesRtoFireAcrossThreads) {
  constexpr size_t kConns = 32;
  constexpr int kSegmentsTotal = 8'000;

  AtomicClock clock;
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, rc);

  RtoEngine::Config ec;
  ec.rto_initial_ticks = 500;
  ec.rto_min_ticks = 100;
  ec.rto_max_ticks = 8'000;
  ec.max_retransmits = 30;  // late ACKs keep connections alive
  RtoEngine engine(&rt, nullptr, ec);

  // (conn_id, seq_end) pairs awaiting an ACK, owner -> NIC thread.
  std::mutex wire_mutex;
  std::deque<std::pair<uint64_t, uint64_t>> wire;
  // ACKs the owner has put on the wire that the NIC has not yet published.
  std::atomic<uint64_t> unpublished{0};
  std::atomic<bool> sends_done{false};
  std::atomic<bool> acks_done{false};

  std::thread nic([&] {
    auto token = rt.RegisterProducer();
    ASSERT_TRUE(token.valid());
    Xorshift rng(7);
    RtoEngine* eng = &engine;
    while (true) {
      std::pair<uint64_t, uint64_t> item;
      {
        std::lock_guard<std::mutex> lock(wire_mutex);
        if (wire.empty()) {
          if (sends_done.load(std::memory_order_acquire)) {
            break;
          }
          item.first = 0;
        } else {
          item = wire.front();
          wire.pop_front();
        }
      }
      if (item.first == 0) {
        // Nothing on the wire: hand the core to the owner (this may be a
        // single-CPU machine, where spinning here starves the shard).
        std::this_thread::yield();
        continue;
      }
      // Wire delay 100..900 ticks straddles the 500-tick RTO: both race
      // arms (cancel-first, fire-first) occur.
      uint64_t delay = 100 + rng.Next() % 800;
      uint64_t conn = item.first;
      uint64_t seq = item.second;
      SoftEventId id = rt.ScheduleCrossCore(
          token, 0, delay, [eng, conn, seq](const SoftTimerFacility::FireInfo&) {
            eng->OnCumulativeAck(conn, seq);
          });
      // A cross-core schedule always lands; losing an ACK here would break
      // the accounting below.
      ASSERT_TRUE(id.valid());
      // Release: the clock read inside the schedule above happens before
      // the owner's next Advance.
      unpublished.fetch_sub(1, std::memory_order_release);
    }
    acks_done.store(true, std::memory_order_release);
  });

  // Owner: open connections, stream segments as window space allows, pump
  // trigger states.
  std::vector<uint64_t> conns(kConns);
  std::vector<uint64_t> next_seq(kConns, 1'000);
  for (size_t i = 0; i < kConns; ++i) {
    conns[i] = engine.OpenConnection(nullptr);
  }
  int sent = 0;
  uint64_t iterations = 0;
  while (sent < kSegmentsTotal) {
    // Guard against livelock regressions: fail loudly instead of hanging.
    ASSERT_LT(++iterations, 20'000'000u) << "owner loop made no progress";
    bool acks_published = unpublished.load(std::memory_order_acquire) == 0;
    if (acks_published) {
      clock.Advance(25);
    }
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    int sent_this_iter = 0;
    for (size_t i = 0; i < kConns && sent < kSegmentsTotal; ++i) {
      if (!engine.IsOpen(conns[i]) ||
          engine.in_flight(conns[i]) >= kRtoWindowSegments) {
        continue;
      }
      uint64_t seq = next_seq[i];
      next_seq[i] += 1'000;
      ASSERT_TRUE(engine.OnSegmentSent(conns[i], seq));
      ++sent;
      ++sent_this_iter;
      unpublished.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(wire_mutex);
        wire.emplace_back(conns[i], seq);
      }
    }
    if (sent_this_iter == 0 || !acks_published) {
      // Windows full, or ACKs still on the wire: the NIC thread owes us
      // work. Yield so it can run (this may be a single-CPU machine).
      std::this_thread::yield();
    }
  }
  sends_done.store(true, std::memory_order_release);
  // Keep the shard ticking until the NIC thread has pushed every ACK, then
  // let in-flight ACK timers and RTOs settle.
  while (!acks_done.load(std::memory_order_acquire)) {
    if (unpublished.load(std::memory_order_acquire) == 0) {
      clock.Advance(25);
    }
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    std::this_thread::yield();
  }
  nic.join();
  for (int i = 0; i < 2'000; ++i) {
    clock.Advance(25);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  for (size_t i = 0; i < kConns; ++i) {
    if (engine.IsOpen(conns[i])) {
      engine.CloseConnection(conns[i]);
    }
  }

  const RtoEngine::Stats& st = engine.stats();
  // Both arms of the race must actually have been exercised.
  EXPECT_GT(st.timers_cancelled, 0u);
  EXPECT_GT(st.timers_fired, 0u);
  EXPECT_GT(st.karn_suppressed, 0u);  // late-ACK arm retired marked segs
  // Exact conservation: every scheduled timer either fired or was
  // cancelled (ACK or close) - none lost, none double-counted.
  EXPECT_EQ(st.timers_scheduled, st.timers_cancelled + st.timers_fired);
  EXPECT_EQ(st.stale_fires, 0u);
  EXPECT_EQ(engine.open_connections(), 0u);
  EXPECT_EQ(st.segments_sent, static_cast<uint64_t>(kSegmentsTotal));
}

}  // namespace
}  // namespace softtimer
