// RtoEngine - per-segment retransmission timers at connection scale.
//
// The paper's flagship workload (Section 5, Tables 6/7) is the TCP
// retransmission timer: scheduled on every segment transmission, almost
// always cancelled microseconds-to-milliseconds later by the cumulative
// ACK. This engine is that workload made concrete on the sharded runtime:
// each connection keeps a small sliding window of in-flight segments, every
// segment carries its own RTO timer scheduled through
// ShardedSoftTimerRuntime's local fast path, and a cumulative ACK retires
// segments and cancels their timers without touching the heap.
//
// Retransmission policy (RFC 6298 shape, integer tick arithmetic):
//
//  * RTT estimation - SRTT/RTTVAR from Jacobson's estimator:
//        first sample:  SRTT = R, RTTVAR = R/2
//        afterwards:    RTTVAR = (3*RTTVAR + |SRTT - R|) / 4
//                       SRTT   = (7*SRTT + R) / 8
//        RTO = clamp(SRTT + max(1, 4*RTTVAR), rto_min, rto_max)
//  * Karn's rule - a segment that has been retransmitted never produces an
//    RTT sample (its ACK is ambiguous); samples come from the newest
//    segment a cumulative ACK retires that was sent exactly once.
//  * Exponential backoff - each expiry doubles the effective RTO
//    (rto << backoff_shift), capped at rto_max. Backoff is per connection
//    and collapses to zero on any forward progress (a cumulative ACK that
//    retires at least one segment).
//  * Give-up - after max_retransmits consecutive expiries with no forward
//    progress the engine aborts the connection: the abort callback fires,
//    DegradationPolicy::NoteConnectionReset() records the reset, and the
//    connection's remaining timers are cancelled.
//
// Threading: an engine instance belongs to ONE shard-owner thread (the
// same contract as the facility it schedules into). Remote ACKs reach the
// owning shard the sharded way - as commands through ScheduleCrossCore that
// invoke OnCumulativeAck on the owner; see tests/rto_cross_shard_test.cc.
//
// Hot path: OnSegmentSent (schedule) and OnCumulativeAck (cancel) are the
// paper's 33/18 ns pair and are SOFTTIMER_HOT - no allocation. The fire
// closure captures {engine pointer, packed segment ref} = 16 bytes, inside
// std::function's inline buffer. Connection open/close may allocate (slab
// growth, free-list push); they are per-connection, not per-segment.

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
  //   RetransmitFn(ctx, conn_ctx, seq_end, attempt) - segment's RTO expired
  //     (attempt = 1 for the first retransmission of this episode).
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
  // Cancels every pending timer and retires the id. Safe on live ids only.
  void CloseConnection(uint64_t conn_id);

  // A segment ending at byte `seq_end` (exclusive) was transmitted: arms
  // its RTO timer at the connection's current (backed-off) RTO. Returns
  // false when the window is full (caller must wait for an ACK) or the id
  // is stale. seq_end must be strictly increasing per connection.
  // Hot path - marked SOFTTIMER_HOT at the definition.
  bool OnSegmentSent(uint64_t conn_id, uint64_t seq_end);

  // Cumulative ACK: retires every in-flight segment with seq_end <=
  // ack_seq, cancelling its timer; takes an RTT sample per Karn's rule and
  // resets backoff on forward progress. On forward progress with segments
  // still in flight it restarts the survivors' timers from now at the
  // refreshed RTO (RFC 6298 step 5.3) through the runtime's reschedule
  // path - one allocation-free re-arm per survivor that keeps its handler
  // and its id, so the segment's stored id stays valid.
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
    // Survivor restarts on partial ACKs (RFC 6298 5.3); a reschedule is
    // neither a schedule nor a cancel, so the conservation equation
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
    SoftEventId timer{};        // invalid when no timer armed; kept
                                // across restarts
    uint8_t retransmitted = 0;  // Karn flag
  };

  struct Conn {
    void* ctx = nullptr;
    uint64_t srtt = 0;    // ticks
    uint64_t rttvar = 0;  // ticks
    uint64_t rto = 0;     // estimator output, pre-backoff
    uint32_t generation = 1;
    uint8_t live = 0;           // in-flight segments
    uint8_t head = 0;           // circular index of the oldest
    uint8_t backoff_shift = 0;  // doubling per no-progress expiry
    uint8_t retries = 0;        // consecutive no-progress expiries
    bool have_srtt = false;
    bool open = false;
    Segment segments[kRtoWindowSegments];
  };

  // Fire-closure payload: [63:32] generation, [31:2] conn index, [1:0]
  // window slot. 30 index bits bound the engine at 2^30 connections.
  static uint64_t PackFire(uint32_t index, uint32_t generation,
                           uint32_t slot) {
    return (static_cast<uint64_t>(generation) << 32) |
           (static_cast<uint64_t>(index) << 2) | slot;
  }

  void OnRtoFire(uint64_t packed, const SoftTimerFacility::FireInfo& info);
  void ArmSegmentTimer(uint32_t index, Conn& conn, uint32_t slot);
  uint64_t EffectiveRto(const Conn& conn) const;
  void TakeRttSample(Conn& conn, uint64_t sample_ticks);
  void AbortConnection(uint32_t index, Conn& conn);
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
