#include "src/core/soft_timer_facility.h"

#include <cassert>
#include <type_traits>
#include <utility>

namespace softtimer {

SoftTimerFacility::SoftTimerFacility(const ClockSource* clock, Config config)
    : clock_(clock), config_(config) {
  // The whole point of the typed-node design is that these thunks stay inside
  // the handler slot's inline buffer (and on its nothrow-move inline path);
  // if either condition breaks, the schedule path silently regains a heap
  // allocation per event, so fail the build instead.
  static_assert(sizeof(DispatchThunk) <= TimerHandlerSlot::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<DispatchThunk>,
                "DispatchThunk must fit the inline handler slot");
  static_assert(sizeof(PolicyThunk) <= TimerHandlerSlot::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<PolicyThunk>,
                "PolicyThunk must fit the inline handler slot");
  assert(clock_ != nullptr);
  assert(config_.interrupt_clock_hz > 0);
  if (config_.max_dispatches_per_clock_read == 0) {
    config_.max_dispatches_per_clock_read = 1;  // documented minimum
  }
  assert(clock_->ResolutionHz() >= config_.interrupt_clock_hz);
  if (config_.degradation.enabled) {
    policy_ = std::make_unique<DegradationPolicy>(config_.degradation,
                                                  ticks_per_backup_interval());
  }
}

uint64_t SoftTimerFacility::ticks_per_backup_interval() const {
  return clock_->ResolutionHz() / config_.interrupt_clock_hz;
}

// SOFTTIMER_HOT
void SoftTimerFacility::DispatchFired(const TimerFired& fired,
                                      const Handler& handler) {
  const TimerPayload& p = *fired.payload;
  FireInfo info;
  info.scheduled_tick = p.scheduled_tick;
  info.delta_ticks = p.delta_ticks;
  // One clock read serves the whole drain batch (seeded by ExpireDue /
  // PolicyCheck); re-read every max_dispatches_per_clock_read dispatches so
  // fired_tick staleness stays bounded under pathological batch sizes.
  if (batch_reads_left_ == 0) {
    batch_fired_tick_ = MeasureTime();
    batch_reads_left_ = config_.max_dispatches_per_clock_read;
  }
  --batch_reads_left_;
  info.fired_tick = batch_fired_tick_;
  info.source = dispatch_source_;
  info.handler_tag = p.tag;
  ++stats_.dispatches;
  ++stats_.dispatches_by_source[static_cast<size_t>(dispatch_source_)];
  stats_.lateness_ticks.Record(info.lateness_ticks());
  // A non-zero cookie on the no-policy path marks a runtime-tracked event;
  // tell the owner (before the handler, so a handler rescheduling through
  // the runtime sees a consistent table) that this cookie is now dead.
  if (p.user_data != 0 && event_retired_fn_ != nullptr && policy_ == nullptr) {
    event_retired_fn_(event_retired_ctx_, p.user_data);
  }
  if (lateness_probe_fn_ != nullptr) {
    lateness_probe_fn_(lateness_probe_ctx_, info);
  }
  if (dispatch_observer_) {
    dispatch_observer_(info);
  }
  handler(info);
  if (policy_) {
    ++dispatched_this_check_;
    uint64_t cost = dispatch_cost_probe_ ? dispatch_cost_probe_(info) : 0;
    policy_->OnDispatchCost(p.tag, cost);
  }
}

void SoftTimerFacility::RunOrDeferFired(const TimerFired& fired,
                                        Handler& handler) {
  const TimerPayload& p = *fired.payload;
  bool quarantine_block = p.tag != 0 &&
                          dispatch_source_ != TriggerSource::kBackupIntr &&
                          policy_->IsQuarantined(p.tag);
  size_t cap = policy_->max_dispatches_per_check();
  bool cap_block = !quarantine_block && cap != 0 && dispatched_this_check_ >= cap;
  if (quarantine_block || cap_block) {
    policy_->NoteDeferred(quarantine_block);
    // Defer by relinking: copy the POD payload fields into a fresh node and
    // move the handler across - no shared state, no extra allocation. The
    // queue clamps the (now past) deadline to one tick beyond the current
    // expiry, so the event is re-examined at the next check (carrying the
    // batch remainder forward; a quarantined tag keeps deferring until a
    // backup check reaches it). user_data records the public id the caller
    // holds, so cancels keep working through the remap table.
    uint64_t public_id = p.user_data != 0 ? p.user_data : fired.id.value;
    TimerPayload replacement;
    replacement.scheduled_tick = p.scheduled_tick;
    replacement.delta_ticks = p.delta_ticks;
    replacement.tag = p.tag;
    replacement.user_data = public_id;
    replacement.handler.emplace(PolicyThunk{this, std::move(handler)});
    TimerId tid = queue_.Schedule(fired.deadline_tick, std::move(replacement));
    deferred_remap_[public_id] = tid;
    return;
  }
  if (p.user_data != 0) {
    deferred_remap_.erase(p.user_data);
  }
  DispatchFired(fired, handler);
}

// SOFTTIMER_HOT
SoftEventId SoftTimerFacility::ScheduleSoftEventWithCookie(uint64_t delta_ticks,
                                                           Handler handler,
                                                           uint32_t handler_tag,
                                                           uint64_t cookie) {
  // Policy mode reuses payload.user_data for deferral remaps, so cookies are
  // a no-policy feature (the sharded runtime runs policy-free shards).
  assert(cookie == 0 || policy_ == nullptr);
  uint64_t scheduled_tick = MeasureTime();
  // Fire when measure_time() exceeds the scheduled value by at least T + 1;
  // the +1 covers the event not being scheduled exactly on a tick boundary.
  uint64_t deadline = scheduled_tick + delta_ticks + 1;
  ++stats_.scheduled;
  TimerPayload payload;
  payload.scheduled_tick = scheduled_tick;
  payload.delta_ticks = delta_ticks;
  payload.tag = handler_tag;
  payload.user_data = cookie;
  if (!policy_) {
    payload.handler.emplace(DispatchThunk{this, std::move(handler)});
    if (deadline < next_deadline_) {
      next_deadline_ = deadline;
    }
  } else {
    payload.handler.emplace(PolicyThunk{this, std::move(handler)});
  }
  TimerId tid = queue_.Schedule(deadline, std::move(payload));
  if (schedule_observer_) {
    schedule_observer_();
  }
  return SoftEventId{tid.value};
}

// SOFTTIMER_HOT
bool SoftTimerFacility::CancelSoftEvent(SoftEventId id) {
  // Cancelling destroys the payload, so read the cookie first; it is only
  // acted on when the cancel lands. No-policy mode only: policy mode reuses
  // user_data for deferral remaps, and cookies require no policy anyway.
  uint64_t cookie = policy_ == nullptr && event_retired_fn_ != nullptr
                        ? queue_.PeekUserData(TimerId{id.value})
                        : 0;
  bool ok = queue_.Cancel(TimerId{id.value});
  // Only a policy-mode deferral ever remaps an id, so the no-policy path
  // never probes the map.
  if (!ok && policy_ && !deferred_remap_.empty()) {
    ok = CancelViaDeferredRemap(id.value);
  }
  if (ok) {
    ++stats_.cancelled;
    // A cancelled cookie-carrying event is as dead as a dispatched one:
    // retire it so the owner's tracking state cannot leak.
    if (cookie != 0) {
      event_retired_fn_(event_retired_ctx_, cookie);
    }
  }
  return ok;
}

// SOFTTIMER_COLD: policy-mode deferral fallback - only reached when a
// quarantine/batch-cap deferral relinked the event under a new id, which the
// policy bounds to degraded regimes; the no-policy fast path is gated off
// this entirely (policy_ check above), so its zero-alloc contract holds.
bool SoftTimerFacility::CancelViaDeferredRemap(uint64_t id_value) {
  auto it = deferred_remap_.find(id_value);
  if (it == deferred_remap_.end()) {
    return false;
  }
  bool ok = queue_.Cancel(it->second);
  deferred_remap_.erase(it);
  return ok;
}

// SOFTTIMER_HOT
SoftEventId SoftTimerFacility::RescheduleSoftEvent(SoftEventId id,
                                                   uint64_t delta_ticks) {
  // Like cookies, rescheduling is a no-policy feature: policy mode reuses
  // payload.user_data for deferral remaps and would need the remap probe on
  // every re-arm, defeating the point of the fast path.
  assert(policy_ == nullptr);
  TimerPayload* payload = queue_.MutablePayload(TimerId{id.value});
  if (payload == nullptr) {
    return SoftEventId{};  // already fired or cancelled
  }
  // Rewrite the bookkeeping in place before the relink so the payload that
  // cancel+reschedule moves into the new node carries the fresh schedule
  // stamp.
  uint64_t scheduled_tick = MeasureTime();
  payload->scheduled_tick = scheduled_tick;
  payload->delta_ticks = delta_ticks;
  // Same deadline rule as a fresh schedule: fire once measure_time() exceeds
  // the scheduled value by at least T + 1.
  uint64_t deadline = scheduled_tick + delta_ticks + 1;
  TimerId moved = queue_.Update(TimerId{id.value}, deadline);
  if (!moved.valid()) {
    return SoftEventId{};  // raced with expiry between the peek and the move
  }
  ++stats_.rescheduled;
  // Only lower the gate. If the event was the earliest and moved later,
  // next_deadline_ lags low, which is safe (the gate is conservative) and
  // costs at most one extra slow-path check - same policy as cancel.
  if (deadline < next_deadline_) {
    next_deadline_ = deadline;
  }
  if (schedule_observer_) {
    schedule_observer_();
  }
  return SoftEventId{moved.value};
}

// SOFTTIMER_HOT
size_t SoftTimerFacility::ExpireDue(TriggerSource source) {
  dispatch_source_ = source;
  uint64_t now = MeasureTime();
  // The expiry read doubles as the batch's fired_tick stamp (one amortized
  // clock read per drain; see Config::max_dispatches_per_clock_read).
  batch_fired_tick_ = now;
  batch_reads_left_ = config_.max_dispatches_per_clock_read;
  size_t fired = queue_.ExpireUpTo(now);
  // Refresh the gate from the queue (handlers may have scheduled or
  // cancelled; the queue's cached earliest makes this cheap).
  std::optional<uint64_t> earliest = queue_.EarliestDeadline();
  next_deadline_ = earliest ? *earliest : UINT64_MAX;
  return fired;
}

size_t SoftTimerFacility::PolicyCheck(TriggerSource source) {
  dispatch_source_ = source;
  uint64_t now = MeasureTime();
  policy_->OnCheck(now, source, queue_.EarliestDeadline(), queue_.size());
  batch_fired_tick_ = now;
  batch_reads_left_ = config_.max_dispatches_per_clock_read;
  dispatched_this_check_ = 0;
  queue_.ExpireUpTo(now);
  return dispatched_this_check_;
}

}  // namespace softtimer
