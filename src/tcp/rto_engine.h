// RtoEngine - one retransmission timer per connection, at connection scale.
//
// The paper's flagship workload (Section 5, Tables 6/7) is the TCP
// retransmission timer: set on every segment transmission, almost always
// cancelled or restarted by the cumulative ACK microseconds-to-milliseconds
// later. Each connection keeps a small sliding window of in-flight segments
// and one RTO timer on ShardedSoftTimerRuntime's local fast path, run as
// RFC 6298 5 specifies:
//
//  * 5.1 - a send arms the timer when none is running.
//  * 5.2 - an ACK that empties the window cancels it.
//  * 5.3 - an ACK that retires data with more in flight restarts it in
//    place (RescheduleOnShard keeps its handler and id).
//  * 5.4-5.6 - on expiry only the earliest unacked segment is resent, the
//    RTO backs off once, and a fresh timer is scheduled (not a re-arm of
//    the fired id, so each schedule ends in exactly one cancel or fire).
//
// Retransmission policy (integer tick arithmetic):
//
//  * RTT estimation - SRTT/RTTVAR from Jacobson's estimator:
//        first sample:  SRTT = R, RTTVAR = R/2
//        afterwards:    RTTVAR = (3*RTTVAR + |SRTT - R|) / 4
//                       SRTT   = (7*SRTT + R) / 8
//        RTO = clamp(SRTT + max(1, 4*RTTVAR), rto_min, rto_max)
//  * Karn's rule - a cumulative ACK that retires any retransmitted segment
//    takes no RTT sample (Linux's FLAG_RETRANS_DATA_ACKED): it also retires
//    survivors sent an RTO earlier, whose RTT + RTO would inflate SRTT.
//    Otherwise the newest retired segment is sampled.
//  * Exponential backoff - each expiry doubles the effective RTO
//    (rto << backoff_shift), capped at rto_max. Backoff is per connection
//    and collapses to zero on any forward progress (a cumulative ACK that
//    retires at least one segment).
//  * Give-up - after max_retransmits consecutive expiries with no forward
//    progress the engine aborts the connection: the abort callback fires,
//    DegradationPolicy::NoteConnectionReset() records the reset, and the
//    connection is closed.
//
// Threading: an engine instance belongs to ONE shard-owner thread (the
// same contract as the facility it schedules into). Remote ACKs reach the
// owning shard the sharded way - as commands through ScheduleCrossCore that
// invoke OnCumulativeAck on the owner; see tests/rto_cross_shard_test.cc.
//
// Hot path: OnSegmentSent (schedule) and OnCumulativeAck (cancel or
// restart) are the paper's 33/18 ns pair and are SOFTTIMER_HOT - no
// allocation. The fire closure captures {engine pointer, connection id} =
// 16 bytes, inside std::function's inline buffer. Connection open/close may
// allocate (slab growth, free-list push); they are per-connection, not
// per-segment.

#ifndef SOFTTIMER_SRC_TCP_RTO_ENGINE_H_
#define SOFTTIMER_SRC_TCP_RTO_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/core/degradation_policy.h"
#include "src/core/sharded_soft_timer_runtime.h"

namespace softtimer {

// In-flight segments tracked per connection. Small and fixed: the Tables
// 6/7 WAN transfers run a few segments of flight per connection, and a
// fixed array keeps the connection node flat (no per-connection heap).
inline constexpr uint32_t kRtoWindowSegments = 4;

class RtoEngine {
 public:
  struct Config {
    // The runtime shard this engine schedules on (its owner thread's).
    size_t shard = 0;
    // RTO before the first RTT sample (RFC 6298 says 1 s; ticks here).
    uint64_t rto_initial_ticks = 1'000'000;
    uint64_t rto_min_ticks = 200'000;
    // Backoff cap AND estimator clamp.
    uint64_t rto_max_ticks = 64'000'000;
    // Consecutive no-progress expiries before the connection is reset.
    uint32_t max_retransmits = 8;
    // Facility handler tag for this engine's timers (degradation budgets /
    // quarantine apply per tag).
    uint32_t handler_tag = 0;
  };

  // Raw function pointers, not std::function: the callbacks fire on the
  // timer hot path and must not own captured state.
  //   RetransmitFn(ctx, conn_ctx, seq_end, attempt) - the connection's RTO
  //     expired; resend the earliest unacked segment, which ends at
  //     `seq_end` (attempt = 1 for the first retransmission of this
  //     episode).
  //   AbortFn(ctx, conn_ctx) - give-up; the connection is already closed
  //     when this runs (its conn id is stale).
  using RetransmitFn = void (*)(void* ctx, void* conn_ctx, uint64_t seq_end,
                                uint32_t attempt);
  using AbortFn = void (*)(void* ctx, void* conn_ctx);
  // Measurement probe invoked on every live RTO dispatch with the
  // facility's FireInfo (scheduled tick, delta, fired tick, lateness) -
  // benches use it for p50/p99 dispatch-lateness and never-early checks.
  using FireProbeFn = void (*)(void* ctx,
                               const SoftTimerFacility::FireInfo& info);

  // `runtime` must outlive the engine; `policy` may be null (reset events
  // are then only visible in the engine's own stats).
  RtoEngine(ShardedSoftTimerRuntime* runtime, DegradationPolicy* policy,
            Config config);

  void set_retransmit_hook(RetransmitFn fn, void* ctx) {
    retransmit_fn_ = fn;
    hook_ctx_ = ctx;
  }
  void set_abort_hook(AbortFn fn, void* ctx) {
    abort_fn_ = fn;
    abort_ctx_ = ctx;
  }
  void set_fire_probe(FireProbeFn fn, void* ctx) {
    fire_probe_fn_ = fn;
    fire_probe_ctx_ = ctx;
  }

  // Opens a connection; `conn_ctx` is handed back in callbacks. Returns a
  // generation-checked id (never 0).
  uint64_t OpenConnection(void* conn_ctx);
  // Cancels the connection's timer and retires the id. Safe on live ids only.
  void CloseConnection(uint64_t conn_id);

  // A segment ending at byte `seq_end` (exclusive) was transmitted: arms
  // the connection's RTO timer at its current (backed-off) RTO unless one
  // is already running (RFC 6298 5.1). Returns false when the window is
  // full (caller must wait for an ACK) or the id is stale. seq_end must be
  // strictly increasing per connection.
  // Hot path - marked SOFTTIMER_HOT at the definition.
  bool OnSegmentSent(uint64_t conn_id, uint64_t seq_end);

  // Cumulative ACK: retires every in-flight segment with seq_end <=
  // ack_seq, takes an RTT sample per Karn's rule and resets backoff on
  // forward progress. On forward progress it cancels the timer when the
  // window is empty (RFC 6298 5.2) and otherwise restarts it from now at
  // the refreshed RTO (5.3) through the runtime's reschedule path - one
  // allocation-free re-arm that keeps the timer's handler and id.
  // Returns segments retired.
  // Hot path - marked SOFTTIMER_HOT at the definition.
  size_t OnCumulativeAck(uint64_t conn_id, uint64_t ack_seq);

  // --- introspection (tests / benches) ----------------------------------
  bool IsOpen(uint64_t conn_id) const;
  size_t in_flight(uint64_t conn_id) const;
  // Current effective RTO (backoff applied, clamped).
  uint64_t effective_rto_ticks(uint64_t conn_id) const;
  uint64_t srtt_ticks(uint64_t conn_id) const;
  size_t open_connections() const { return open_; }

  struct Stats {
    uint64_t opens = 0;
    uint64_t closes = 0;
    uint64_t segments_sent = 0;
    uint64_t segments_acked = 0;
    uint64_t timers_scheduled = 0;
    uint64_t timers_cancelled = 0;  // cancelled before firing (the 95% path)
    uint64_t timers_fired = 0;
    // Restarts of a connection's running timer by ACKs that leave data in
    // flight (RFC 6298 5.3); a reschedule is neither a schedule nor a
    // cancel, so the conservation equation
    // timers_scheduled == timers_cancelled + timers_fired still holds.
    uint64_t timers_rescheduled = 0;
    uint64_t retransmits = 0;
    uint64_t rtt_samples = 0;
    uint64_t karn_suppressed = 0;  // retired retransmitted segs (no sample)
    uint64_t backoff_capped = 0;   // expiries where the shift hit rto_max
    uint64_t give_ups = 0;         // connections reset
    uint64_t window_full_rejects = 0;
    uint64_t stale_fires = 0;      // fires against a closed generation
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Segment {
    uint64_t seq_end = 0;
    uint64_t sent_tick = 0;
    uint8_t retransmitted = 0;  // Karn flag
  };

  struct Conn {
    void* ctx = nullptr;
    uint64_t srtt = 0;    // ticks
    uint64_t rttvar = 0;  // ticks
    uint64_t rto = 0;     // estimator output, pre-backoff
    SoftEventId timer{};  // the RTO timer; valid exactly while live > 0
    uint32_t generation = 1;
    uint8_t live = 0;           // in-flight segments
    uint8_t head = 0;           // circular index of the oldest
    uint8_t backoff_shift = 0;  // doubling per no-progress expiry
    uint8_t retries = 0;        // consecutive no-progress expiries
    bool have_srtt = false;
    bool open = false;
    Segment segments[kRtoWindowSegments];
  };

  // The fire closure carries the connection id ([63:32] generation,
  // [31:0] index), so a fire after a close resolves as stale.
  void OnRtoFire(uint64_t conn_id, const SoftTimerFacility::FireInfo& info);
  void ArmTimer(uint64_t conn_id, Conn& conn);
  uint64_t EffectiveRto(const Conn& conn) const;
  void TakeRttSample(Conn& conn, uint64_t sample_ticks);
  void AbortConnection(uint64_t conn_id, Conn& conn);
  Conn* Resolve(uint64_t conn_id, uint32_t* index_out = nullptr);
  const Conn* Resolve(uint64_t conn_id) const;

  ShardedSoftTimerRuntime* rt_;
  DegradationPolicy* policy_;
  Config config_;
  RetransmitFn retransmit_fn_ = nullptr;
  void* hook_ctx_ = nullptr;
  AbortFn abort_fn_ = nullptr;
  void* abort_ctx_ = nullptr;
  FireProbeFn fire_probe_fn_ = nullptr;
  void* fire_probe_ctx_ = nullptr;

  std::vector<Conn> conns_;
  std::vector<uint32_t> free_list_;
  size_t open_ = 0;
  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TCP_RTO_ENGINE_H_
