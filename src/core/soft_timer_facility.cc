#include "src/core/soft_timer_facility.h"

#include <cassert>
#include <type_traits>
#include <utility>

namespace softtimer {

SoftTimerFacility::SoftTimerFacility(const ClockSource* clock, Config config)
    : clock_(clock), config_(config) {
  // The whole point of the typed-node design is that the thunk stays inside
  // the handler slot's inline buffer (and on its nothrow-move inline path);
  // if either condition breaks, the schedule path silently regains a heap
  // allocation per event, so fail the build instead.
  static_assert(sizeof(DispatchThunk) <= TimerHandlerSlot::kInlineBytes &&
                    std::is_nothrow_move_constructible_v<DispatchThunk>,
                "DispatchThunk must fit the inline handler slot");
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
  if (policy_) {
    bool quarantined = p.tag != 0 &&
                       dispatch_source_ != TriggerSource::kBackupIntr &&
                       policy_->IsQuarantined(p.tag);
    size_t cap = policy_->max_dispatches_per_check();
    if (quarantined || (cap != 0 && dispatched_this_check_ >= cap)) {
      policy_->NoteDeferred(quarantined);
      // Defer: re-queue the event under its own id. The queue clamps the
      // (now past) deadline to one tick beyond the current expiry, so the
      // next check re-examines it (carrying the batch remainder forward; a
      // quarantined tag keeps deferring until a backup check reaches it).
      queue_.Update(fired.id, fired.deadline_tick);
      return;
    }
  }
  FireInfo info;
  info.scheduled_tick = p.scheduled_tick;
  info.delta_ticks = p.delta_ticks;
  // One clock read serves the whole drain batch (seeded by ExpireDue);
  // re-read every max_dispatches_per_clock_read dispatches so fired_tick
  // staleness stays bounded under pathological batch sizes.
  if (batch_reads_left_ == 0) {
    batch_fired_tick_ = MeasureTime();
    batch_reads_left_ = config_.max_dispatches_per_clock_read;
  }
  --batch_reads_left_;
  info.fired_tick = batch_fired_tick_;
  info.source = dispatch_source_;
  info.handler_tag = p.tag;
  ++dispatched_this_check_;
  ++stats_.dispatches;
  ++stats_.dispatches_by_source[static_cast<size_t>(dispatch_source_)];
  stats_.lateness_ticks.Record(info.lateness_ticks());
  // A non-zero cookie marks a runtime-tracked event; tell the owner (before
  // the handler, so a handler rescheduling through the runtime sees a
  // consistent table) that this cookie is now dead.
  if (p.user_data != 0 && event_retired_fn_ != nullptr) {
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
    uint64_t cost = dispatch_cost_probe_ ? dispatch_cost_probe_(info) : 0;
    policy_->OnDispatchCost(p.tag, cost);
  }
}

// SOFTTIMER_HOT
SoftEventId SoftTimerFacility::ScheduleSoftEventWithCookie(uint64_t delta_ticks,
                                                           Handler handler,
                                                           uint32_t handler_tag,
                                                           uint64_t cookie) {
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
  payload.handler.emplace(DispatchThunk{this, std::move(handler)});
  if (deadline < next_deadline_) {
    next_deadline_ = deadline;
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
  // acted on when the cancel lands.
  uint64_t cookie = event_retired_fn_ != nullptr
                        ? queue_.PeekUserData(TimerId{id.value})
                        : 0;
  if (!queue_.Cancel(TimerId{id.value})) {
    return false;
  }
  ++stats_.cancelled;
  // A cancelled cookie-carrying event is as dead as a dispatched one:
  // retire it so the owner's tracking state cannot leak.
  if (cookie != 0) {
    event_retired_fn_(event_retired_ctx_, cookie);
  }
  return true;
}

// SOFTTIMER_HOT
bool SoftTimerFacility::RescheduleSoftEvent(SoftEventId id,
                                            uint64_t delta_ticks) {
  TimerPayload* payload = queue_.MutablePayload(TimerId{id.value});
  if (payload == nullptr) {
    return false;  // already fired, cancelled, or being dispatched
  }
  // Rewrite the bookkeeping in place, then move the node: the event keeps
  // its id and carries the fresh schedule stamp.
  uint64_t scheduled_tick = MeasureTime();
  payload->scheduled_tick = scheduled_tick;
  payload->delta_ticks = delta_ticks;
  // Same deadline rule as a fresh schedule: fire once measure_time() exceeds
  // the scheduled value by at least T + 1.
  uint64_t deadline = scheduled_tick + delta_ticks + 1;
  queue_.Update(TimerId{id.value}, deadline);
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
  return true;
}

// SOFTTIMER_HOT
size_t SoftTimerFacility::ExpireDue(TriggerSource source) {
  dispatch_source_ = source;
  uint64_t now = MeasureTime();
  if (policy_) {
    policy_->OnCheck(now, source, queue_.EarliestDeadline(), queue_.size());
  }
  // The expiry read doubles as the batch's fired_tick stamp (one amortized
  // clock read per drain; see Config::max_dispatches_per_clock_read).
  batch_fired_tick_ = now;
  batch_reads_left_ = config_.max_dispatches_per_clock_read;
  dispatched_this_check_ = 0;
  queue_.ExpireUpTo(now);
  // Refresh the gate from the queue (handlers may have scheduled or
  // cancelled; the queue's cached earliest makes this cheap).
  std::optional<uint64_t> earliest = queue_.EarliestDeadline();
  next_deadline_ = earliest ? *earliest : UINT64_MAX;
  return dispatched_this_check_;
}

}  // namespace softtimer
