// RtoEngine unit tests: the RFC 6298 estimator arithmetic, the one timer
// per connection (5.1-5.6), Karn's rule, exponential backoff and its cap,
// the give-up path into DegradationPolicy::NoteConnectionReset, window
// bounds, and id staleness.
// All single-threaded against a manual clock, driving the shard's trigger
// states by hand so every fire is deterministic.

#include "src/tcp/rto_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/degradation_policy.h"
#include "src/core/sharded_soft_timer_runtime.h"

namespace softtimer {
namespace {

class ManualClock : public ClockSource {
 public:
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) { now_ += ticks; }
  uint64_t now() const { return now_; }

 private:
  uint64_t now_ = 0;
};

struct Harness {
  ManualClock clock;
  ShardedSoftTimerRuntime rt;
  DegradationPolicy policy;
  RtoEngine engine;

  explicit Harness(RtoEngine::Config ec = DefaultEngineCfg())
      : rt(&clock, RtCfg()),
        policy(DegradationPolicy::Config{}, 1000),
        engine(&rt, &policy, ec) {}

  static ShardedSoftTimerRuntime::Config RtCfg() {
    ShardedSoftTimerRuntime::Config c;
    c.num_shards = 1;
    return c;
  }

  static RtoEngine::Config DefaultEngineCfg() {
    RtoEngine::Config ec;
    ec.rto_initial_ticks = 1'000;
    ec.rto_min_ticks = 100;
    ec.rto_max_ticks = 8'000;
    ec.max_retransmits = 10;
    return ec;
  }

  // Walks time forward in `step` increments, passing a trigger state at
  // each stop so due timers dispatch promptly.
  void RunUntil(uint64_t until, uint64_t step = 50) {
    while (clock.now() < until) {
      clock.Advance(step);
      rt.OnTriggerState(0, TriggerSource::kSyscall);
    }
  }
};

struct RetransmitLog {
  std::vector<uint64_t> seq_ends;
  std::vector<uint32_t> attempts;
  static void Hook(void* ctx, void*, uint64_t seq_end, uint32_t attempt) {
    auto* log = static_cast<RetransmitLog*>(ctx);
    log->seq_ends.push_back(seq_end);
    log->attempts.push_back(attempt);
  }
};

TEST(RtoEngineTest, AckCancelsTimersBeforeTheyFire) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);
  ASSERT_TRUE(h.engine.IsOpen(conn));

  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 2'000));
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 3'000));
  EXPECT_EQ(h.engine.in_flight(conn), 3u);

  h.RunUntil(400);  // well under the 1000-tick RTO
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 3'000), 3u);
  EXPECT_EQ(h.engine.in_flight(conn), 0u);

  // One timer for the connection (RFC 6298 5.1), cancelled once the
  // window empties (5.2). Nothing left to fire, ever.
  h.RunUntil(50'000);
  EXPECT_EQ(h.engine.stats().timers_scheduled, 1u);
  EXPECT_EQ(h.engine.stats().timers_cancelled, 1u);
  EXPECT_EQ(h.engine.stats().timers_fired, 0u);
  EXPECT_EQ(h.engine.stats().retransmits, 0u);
}

TEST(RtoEngineTest, RttSamplesDriveSrttAndRto) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);

  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 1'000u);  // initial
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  h.clock.Advance(500);
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 1'000), 1u);

  // First sample R=500: SRTT = 500, RTTVAR = 250, RTO = 500 + 4*250.
  EXPECT_EQ(h.engine.srtt_ticks(conn), 500u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 1'500u);
  EXPECT_EQ(h.engine.stats().rtt_samples, 1u);

  // Second sample R=500: RTTVAR = (3*250 + 0)/4 = 187, SRTT stays 500.
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 2'000));
  h.clock.Advance(500);
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 2'000), 1u);
  EXPECT_EQ(h.engine.srtt_ticks(conn), 500u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 500u + 4u * 187u);
  EXPECT_EQ(h.engine.stats().rtt_samples, 2u);
}

TEST(RtoEngineTest, FireBacksOffExponentiallyToTheCap) {
  Harness h;
  RetransmitLog log;
  h.engine.set_retransmit_hook(RetransmitLog::Hook, &log);
  uint64_t conn = h.engine.OpenConnection(nullptr);

  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 1'000u);

  // Never ACK: the RTO fires, doubles, and caps at rto_max = 8000.
  // Effective RTO after each fire: 2000, 4000, 8000, 8000, ...
  h.RunUntil(2'000);
  ASSERT_EQ(log.attempts.size(), 1u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 2'000u);
  h.RunUntil(5'000);
  ASSERT_EQ(log.attempts.size(), 2u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 4'000u);
  h.RunUntil(10'000);
  ASSERT_EQ(log.attempts.size(), 3u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 8'000u);
  h.RunUntil(19'000);
  ASSERT_EQ(log.attempts.size(), 4u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 8'000u);  // capped
  EXPECT_GE(h.engine.stats().backoff_capped, 1u);

  // Every retransmission re-sent the same segment with a rising attempt #.
  for (size_t i = 0; i < log.attempts.size(); ++i) {
    EXPECT_EQ(log.seq_ends[i], 1'000u);
    EXPECT_EQ(log.attempts[i], static_cast<uint32_t>(i + 1));
  }
}

TEST(RtoEngineTest, KarnRuleSuppressesSamplesFromRetransmittedSegments) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);

  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  // Let the RTO fire once so the segment is marked retransmitted.
  h.RunUntil(2'000);
  ASSERT_EQ(h.engine.stats().retransmits, 1u);

  // The (late) ACK retires it but must not feed the estimator.
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 1'000), 1u);
  EXPECT_EQ(h.engine.stats().rtt_samples, 0u);
  EXPECT_EQ(h.engine.stats().karn_suppressed, 1u);
  EXPECT_EQ(h.engine.srtt_ticks(conn), 0u);
  // Forward progress still collapses the backoff episode.
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 1'000u);

  // A fresh, never-retransmitted segment samples normally again.
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 2'000));
  h.clock.Advance(300);
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 2'000), 1u);
  EXPECT_EQ(h.engine.stats().rtt_samples, 1u);
  EXPECT_EQ(h.engine.srtt_ticks(conn), 300u);
}

TEST(RtoEngineTest, AckRetiringARetransmittedSegmentTakesNoSample) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);

  // Two in flight; the RTO (due ~1000) resends only the head, then one
  // cumulative ACK retires both.
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  h.clock.Advance(900);
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 2'000));
  h.RunUntil(1'600);
  ASSERT_EQ(h.engine.stats().retransmits, 1u);
  uint64_t srtt_before = h.engine.srtt_ticks(conn);

  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 2'000), 2u);
  // The ACK also answers segment 1's resend, so it samples neither:
  // segment 2's RTT would include the wait for that resend.
  EXPECT_EQ(h.engine.stats().karn_suppressed, 1u);
  EXPECT_EQ(h.engine.stats().rtt_samples, 0u);
  EXPECT_EQ(h.engine.srtt_ticks(conn), srtt_before);
}

TEST(RtoEngineTest, FullWindowExpiryBacksOffOnce) {
  RtoEngine::Config ec = Harness::DefaultEngineCfg();
  ec.max_retransmits = 3;
  Harness h(ec);
  RetransmitLog log;
  h.engine.set_retransmit_hook(RetransmitLog::Hook, &log);
  uint64_t conn = h.engine.OpenConnection(nullptr);

  // Four in flight, never ACKed. One expiry is one retransmission of the
  // head, one backoff step and one retry against the budget.
  for (uint32_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(h.engine.OnSegmentSent(conn, i * 1'000));
  }
  h.RunUntil(2'000);  // first expiry at ~1000, the next due at ~3000
  ASSERT_EQ(log.attempts.size(), 1u);
  EXPECT_EQ(log.seq_ends[0], 1'000u);
  EXPECT_EQ(log.attempts[0], 1u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 2'000u);
  EXPECT_TRUE(h.engine.IsOpen(conn));

  // Expiries at ~3000 and ~7000 spend the budget; the 4th, at ~15000
  // (8000 = rto_max), gives up.
  h.RunUntil(14'000);
  ASSERT_EQ(log.attempts.size(), 3u);
  for (size_t i = 0; i < log.attempts.size(); ++i) {
    EXPECT_EQ(log.seq_ends[i], 1'000u);  // always the head
    EXPECT_EQ(log.attempts[i], static_cast<uint32_t>(i + 1));
  }
  EXPECT_TRUE(h.engine.IsOpen(conn));
  EXPECT_EQ(h.engine.stats().give_ups, 0u);
  h.RunUntil(16'000);
  EXPECT_FALSE(h.engine.IsOpen(conn));
  EXPECT_EQ(h.engine.stats().give_ups, 1u);
  EXPECT_EQ(h.engine.stats().retransmits, 3u);
  EXPECT_EQ(h.engine.stats().timers_fired, 4u);
  EXPECT_EQ(h.engine.stats().timers_scheduled,
            h.engine.stats().timers_cancelled + h.engine.stats().timers_fired);
}

TEST(RtoEngineTest, GiveUpAbortsConnectionAndNotifiesPolicy) {
  RtoEngine::Config ec = Harness::DefaultEngineCfg();
  ec.max_retransmits = 2;
  Harness h(ec);

  int conn_marker = 0;
  struct AbortLog {
    int calls = 0;
    void* ctx = nullptr;
    static void Hook(void* self, void* conn_ctx) {
      auto* log = static_cast<AbortLog*>(self);
      ++log->calls;
      log->ctx = conn_ctx;
    }
  } abort_log;
  h.engine.set_abort_hook(AbortLog::Hook, &abort_log);

  uint64_t conn = h.engine.OpenConnection(&conn_marker);
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));

  // Fires at ~1000 (attempt 1), ~3000 (attempt 2), ~7000 (give-up).
  h.RunUntil(60'000);
  EXPECT_EQ(h.engine.stats().retransmits, 2u);
  EXPECT_EQ(h.engine.stats().give_ups, 1u);
  EXPECT_EQ(abort_log.calls, 1);
  EXPECT_EQ(abort_log.ctx, &conn_marker);
  EXPECT_FALSE(h.engine.IsOpen(conn));
  EXPECT_EQ(h.engine.open_connections(), 0u);
  EXPECT_EQ(h.policy.stats().connection_resets, 1u);
  // The closed connection's id is dead.
  EXPECT_FALSE(h.engine.OnSegmentSent(conn, 2'000));
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 2'000), 0u);
}

TEST(RtoEngineTest, PartialAckRestartsTheConnectionTimer) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);

  // Four in flight at t=0 under one timer, due at ~1001 (RTO 1000).
  for (uint32_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(h.engine.OnSegmentSent(conn, i * 1'000));
  }
  // Partial ACK at t=500 retires the head; the sample R=500 sets
  // SRTT=500, RTTVAR=250, RTO=1500, and RFC 6298 5.3 restarts the timer
  // from now: due ~t=2001, not its original ~1001.
  h.clock.Advance(500);
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 1'000), 1u);
  EXPECT_EQ(h.engine.stats().timers_rescheduled, 1u);
  EXPECT_EQ(h.engine.effective_rto_ticks(conn), 1'500u);

  h.RunUntil(1'800);  // past the original deadline, before the restarted one
  EXPECT_EQ(h.engine.stats().timers_fired, 0u);
  EXPECT_EQ(h.engine.stats().retransmits, 0u);

  h.RunUntil(2'300);  // past the restarted deadline: it fires once
  EXPECT_EQ(h.engine.stats().timers_fired, 1u);
  EXPECT_EQ(h.engine.stats().retransmits, 1u);
  // A reschedule is neither a schedule nor a cancel: once the close resolves
  // the retransmission's re-armed timer, conservation holds exactly.
  h.engine.CloseConnection(conn);
  EXPECT_EQ(h.engine.stats().timers_scheduled,
            h.engine.stats().timers_cancelled + h.engine.stats().timers_fired);
}

TEST(RtoEngineTest, WindowBoundsInFlightSegments) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);

  for (uint32_t i = 1; i <= kRtoWindowSegments; ++i) {
    EXPECT_TRUE(h.engine.OnSegmentSent(conn, i * 1'000));
  }
  EXPECT_FALSE(h.engine.OnSegmentSent(conn, 9'000));
  EXPECT_EQ(h.engine.stats().window_full_rejects, 1u);

  // Retiring the oldest reopens exactly one slot.
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 1'000), 1u);
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 9'000));
  EXPECT_FALSE(h.engine.OnSegmentSent(conn, 10'000));
}

TEST(RtoEngineTest, CloseCancelsEverythingAndStalesTheId) {
  Harness h;
  uint64_t conn = h.engine.OpenConnection(nullptr);
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 1'000));
  EXPECT_TRUE(h.engine.OnSegmentSent(conn, 2'000));
  h.engine.CloseConnection(conn);
  EXPECT_FALSE(h.engine.IsOpen(conn));
  EXPECT_EQ(h.engine.stats().timers_cancelled, 1u);

  // A reopened connection reuses the slot under a new generation; the old
  // id must not alias it, and no stale fire may slip through.
  uint64_t conn2 = h.engine.OpenConnection(nullptr);
  EXPECT_EQ(static_cast<uint32_t>(conn2), static_cast<uint32_t>(conn));
  EXPECT_NE(conn2, conn);
  EXPECT_FALSE(h.engine.OnSegmentSent(conn, 3'000));
  EXPECT_EQ(h.engine.OnCumulativeAck(conn, 3'000), 0u);
  EXPECT_TRUE(h.engine.OnSegmentSent(conn2, 3'000));

  h.RunUntil(100'000);
  EXPECT_EQ(h.engine.stats().stale_fires, 0u);
}

}  // namespace
}  // namespace softtimer
