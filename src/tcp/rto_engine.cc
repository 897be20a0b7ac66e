#include "src/tcp/rto_engine.h"

#include <cassert>

namespace softtimer {

namespace {
constexpr uint32_t kWindowMask = kRtoWindowSegments - 1;
static_assert((kRtoWindowSegments & (kRtoWindowSegments - 1)) == 0,
              "window must be a power of two (circular index mask)");
}  // namespace

RtoEngine::RtoEngine(ShardedSoftTimerRuntime* runtime,
                     DegradationPolicy* policy, Config config)
    : rt_(runtime), policy_(policy), config_(config) {
  assert(config_.rto_min_ticks > 0);
  assert(config_.rto_min_ticks <= config_.rto_max_ticks);
}

uint64_t RtoEngine::OpenConnection(void* conn_ctx) {
  uint32_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
  } else {
    index = static_cast<uint32_t>(conns_.size());
    conns_.emplace_back();
  }
  Conn& conn = conns_[index];
  conn.ctx = conn_ctx;
  conn.srtt = 0;
  conn.rttvar = 0;
  conn.rto = config_.rto_initial_ticks;
  conn.live = 0;
  conn.head = 0;
  conn.backoff_shift = 0;
  conn.retries = 0;
  conn.have_srtt = false;
  conn.open = true;
  ++open_;
  ++stats_.opens;
  return (static_cast<uint64_t>(conn.generation) << 32) | index;
}

void RtoEngine::CloseConnection(uint64_t conn_id) {
  uint32_t index;
  Conn* conn = Resolve(conn_id, &index);
  if (conn == nullptr) {
    return;
  }
  if (conn->timer.valid()) {
    if (rt_->CancelOnShard(config_.shard, conn->timer)) {
      ++stats_.timers_cancelled;
    }
    conn->timer = SoftEventId{};
  }
  conn->live = 0;
  conn->open = false;
  conn->ctx = nullptr;
  // Bump the generation so outstanding ids, the fire closure's copy
  // included, go stale; keep it nonzero so ids never collapse to 0.
  if (++conn->generation == 0) {
    conn->generation = 1;
  }
  free_list_.push_back(index);
  --open_;
  ++stats_.closes;
}

uint64_t RtoEngine::EffectiveRto(const Conn& conn) const {
  uint64_t rto = conn.rto;
  // Saturating shift: past 63 the doubling has long hit the cap anyway.
  uint8_t shift = conn.backoff_shift < 63 ? conn.backoff_shift : 63;
  uint64_t backed = rto << shift;
  if ((backed >> shift) != rto || backed > config_.rto_max_ticks) {
    backed = config_.rto_max_ticks;
  }
  return backed < config_.rto_min_ticks ? config_.rto_min_ticks : backed;
}

// SOFTTIMER_HOT
void RtoEngine::ArmTimer(uint64_t conn_id, Conn& conn) {
  RtoEngine* self = this;
  // 16-byte capture: stays inside std::function's inline buffer, so the
  // schedule path allocates nothing.
  conn.timer = rt_->ScheduleOnShard(
      config_.shard, EffectiveRto(conn),
      [self, conn_id](const SoftTimerFacility::FireInfo& info) {
        self->OnRtoFire(conn_id, info);
      },
      config_.handler_tag);
  ++stats_.timers_scheduled;
}

// SOFTTIMER_HOT
bool RtoEngine::OnSegmentSent(uint64_t conn_id, uint64_t seq_end) {
  Conn* conn = Resolve(conn_id);
  if (conn == nullptr) {
    return false;
  }
  if (conn->live == kRtoWindowSegments) {
    ++stats_.window_full_rejects;
    return false;
  }
  Segment& seg = conn->segments[(conn->head + conn->live) & kWindowMask];
  seg.seq_end = seq_end;
  seg.sent_tick = rt_->clock().NowTicks();
  seg.retransmitted = 0;
  ++conn->live;
  if (!conn->timer.valid()) {  // RFC 6298 5.1
    ArmTimer(conn_id, *conn);
  }
  assert(conn->timer.valid() == (conn->live > 0));
  ++stats_.segments_sent;
  return true;
}

// SOFTTIMER_HOT
size_t RtoEngine::OnCumulativeAck(uint64_t conn_id, uint64_t ack_seq) {
  Conn* conn = Resolve(conn_id);
  if (conn == nullptr) {
    return 0;
  }
  size_t retired = 0;
  // Karn: sample the newest retired segment, unless any retired segment
  // was retransmitted (then the ACK is ambiguous and takes no sample).
  uint64_t sample_sent_tick = 0;
  bool have_sample = true;
  while (conn->live > 0) {
    Segment& seg = conn->segments[conn->head];
    if (seg.seq_end > ack_seq) {
      break;
    }
    if (seg.retransmitted) {
      ++stats_.karn_suppressed;
      have_sample = false;
    }
    sample_sent_tick = seg.sent_tick;
    conn->head = (conn->head + 1) & kWindowMask;
    --conn->live;
    ++retired;
    ++stats_.segments_acked;
  }
  if (retired == 0) {
    return 0;
  }
  // Forward progress: the path is alive, collapse the backoff episode.
  conn->backoff_shift = 0;
  conn->retries = 0;
  if (have_sample) {
    TakeRttSample(*conn, rt_->clock().NowTicks() - sample_sent_tick);
  }
  if (conn->live == 0) {
    // RFC 6298 5.2: everything outstanding is acknowledged.
    if (rt_->CancelOnShard(config_.shard, conn->timer)) {
      ++stats_.timers_cancelled;
    }
    conn->timer = SoftEventId{};
  } else if (rt_->RescheduleOnShard(config_.shard, conn->timer,
                                    EffectiveRto(*conn))) {
    // RFC 6298 5.3: restart from now at the refreshed (backoff-collapsed,
    // re-estimated) RTO, in place under the same id.
    ++stats_.timers_rescheduled;
  }
  assert(conn->timer.valid() == (conn->live > 0));
  return retired;
}

void RtoEngine::TakeRttSample(Conn& conn, uint64_t sample_ticks) {
  if (!conn.have_srtt) {
    conn.srtt = sample_ticks;
    conn.rttvar = sample_ticks / 2;
    conn.have_srtt = true;
  } else {
    uint64_t diff = conn.srtt > sample_ticks ? conn.srtt - sample_ticks
                                             : sample_ticks - conn.srtt;
    conn.rttvar = (3 * conn.rttvar + diff) / 4;
    conn.srtt = (7 * conn.srtt + sample_ticks) / 8;
  }
  uint64_t var_term = 4 * conn.rttvar;
  if (var_term < 1) {
    var_term = 1;
  }
  uint64_t rto = conn.srtt + var_term;
  if (rto < config_.rto_min_ticks) {
    rto = config_.rto_min_ticks;
  }
  if (rto > config_.rto_max_ticks) {
    rto = config_.rto_max_ticks;
  }
  conn.rto = rto;
  ++stats_.rtt_samples;
}

// SOFTTIMER_HOT
void RtoEngine::OnRtoFire(uint64_t conn_id,
                          const SoftTimerFacility::FireInfo& info) {
  Conn* found = Resolve(conn_id);
  if (found == nullptr) {
    ++stats_.stale_fires;
    return;
  }
  Conn& conn = *found;
  if (fire_probe_fn_ != nullptr) {
    fire_probe_fn_(fire_probe_ctx_, info);
  }
  // Same-thread discipline means a fire always refers to the connection's
  // running timer (a cancelled timer never dispatches).
  conn.timer = SoftEventId{};
  ++stats_.timers_fired;

  // Backoff first, so the retransmission is re-armed at the doubled RTO.
  uint64_t before = EffectiveRto(conn);
  if (conn.backoff_shift < 63) {
    ++conn.backoff_shift;
  }
  if (EffectiveRto(conn) == before && before == config_.rto_max_ticks) {
    ++stats_.backoff_capped;
  }
  ++conn.retries;
  if (conn.retries > config_.max_retransmits) {
    AbortConnection(conn_id, conn);
    return;
  }

  // RFC 6298 5.4: resend the earliest unacked segment only.
  Segment& seg = conn.segments[conn.head];
  seg.retransmitted = 1;  // Karn: an ACK that retires it takes no sample
  ++stats_.retransmits;
  // 5.5-5.6: a fresh timer at the backed-off RTO, armed before the hook so
  // an ACK the hook delivers finds it running.
  ArmTimer(conn_id, conn);
  assert(conn.timer.valid() == (conn.live > 0));
  if (retransmit_fn_ != nullptr) {
    retransmit_fn_(hook_ctx_, conn.ctx, seg.seq_end, conn.retries);
  }
}

// SOFTTIMER_COLD: transport give-up - reached only after the full RFC 6298
// backoff ladder is exhausted (max_retransmits consecutive expiries with no
// progress), which DegradationPolicy counts as a connection reset; the
// steady-state fire path rearms and returns long before this.
void RtoEngine::AbortConnection(uint64_t conn_id, Conn& conn) {
  void* ctx = conn.ctx;
  ++stats_.give_ups;
  if (policy_ != nullptr) {
    policy_->NoteConnectionReset();
  }
  CloseConnection(conn_id);
  if (abort_fn_ != nullptr) {
    abort_fn_(abort_ctx_, ctx);
  }
}

RtoEngine::Conn* RtoEngine::Resolve(uint64_t conn_id, uint32_t* index_out) {
  uint32_t index = static_cast<uint32_t>(conn_id);
  uint32_t generation = static_cast<uint32_t>(conn_id >> 32);
  if (index >= conns_.size()) {
    return nullptr;
  }
  Conn& conn = conns_[index];
  if (!conn.open || conn.generation != generation) {
    return nullptr;
  }
  if (index_out != nullptr) {
    *index_out = index;
  }
  return &conn;
}

const RtoEngine::Conn* RtoEngine::Resolve(uint64_t conn_id) const {
  return const_cast<RtoEngine*>(this)->Resolve(conn_id);
}

bool RtoEngine::IsOpen(uint64_t conn_id) const {
  return Resolve(conn_id) != nullptr;
}

size_t RtoEngine::in_flight(uint64_t conn_id) const {
  const Conn* conn = Resolve(conn_id);
  return conn != nullptr ? conn->live : 0;
}

uint64_t RtoEngine::effective_rto_ticks(uint64_t conn_id) const {
  const Conn* conn = Resolve(conn_id);
  return conn != nullptr ? EffectiveRto(*conn) : 0;
}

uint64_t RtoEngine::srtt_ticks(uint64_t conn_id) const {
  const Conn* conn = Resolve(conn_id);
  return conn != nullptr ? conn->srtt : 0;
}

}  // namespace softtimer
