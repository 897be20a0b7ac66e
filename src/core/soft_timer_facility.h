// SoftTimerFacility - the paper's contribution (Section 3).
//
// Provides the paper's four operations:
//
//   measure_resolution()         -> MeasureResolution()
//   measure_time()               -> MeasureTime()
//   interrupt_clock_resolution() -> InterruptClockResolution()
//   schedule_soft_event(T, h)    -> ScheduleSoftEvent(T, h)
//
// An event scheduled with delay T at tick S fires at the first *trigger
// state* (or backup interrupt) whose tick is >= S + T + 1; the "+1" accounts
// for S not being tick-aligned, giving the paper's bound
//
//      T  <  ActualEventTime  <  T + X + 1,     X = measure/interrupt ratio,
//
// which the backup interrupt enforces on the high side (it calls
// OnBackupInterrupt() every X ticks and dispatches anything overdue).
//
// The facility is pure scheduling logic over a ClockSource and a
// HeapTimerQueue it holds by value (the paper kept events in a modified
// timing wheel; DESIGN.md section 13 measures why one binary heap replaced
// it), so schedule, cancel, re-arm and expiry are direct calls into the
// heap. It consumes no CPU-time model of its own. The host environment (in
// this repository, machine::Kernel) is responsible for (a) calling
// OnTriggerState() at every trigger state, (b) calling OnBackupInterrupt()
// from the periodic timer interrupt, and (c) charging whatever per-check and
// per-dispatch costs apply via the dispatch hook.
//
// Hot-path anatomy (see DESIGN.md): trigger-state checks are the operation
// the paper requires to cost "roughly that of a function call", so the
// facility keeps a cached next-deadline tick. A check when nothing is due is
// one clock read plus one compare - no call into the queue, no
// allocation. Scheduling moves the handler into the timer queue's typed slab
// node (TimerPayload, src/timer/timer_queue.h), so steady-state scheduling
// performs zero heap allocations as well.

#ifndef SOFTTIMER_SRC_CORE_SOFT_TIMER_FACILITY_H_
#define SOFTTIMER_SRC_CORE_SOFT_TIMER_FACILITY_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/core/clock_source.h"
#include "src/core/degradation_policy.h"
#include "src/core/trigger.h"
#include "src/stats/latency_histogram.h"
#include "src/timer/heap_timer_queue.h"

namespace softtimer {

// Identifies one scheduled soft event; default-constructed ids are invalid.
struct SoftEventId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

class SoftTimerFacility {
 public:
  struct Config {
    // Backup periodic interrupt rate (the paper's interrupt_clock_resolution,
    // typically 1 kHz). The host must actually call OnBackupInterrupt() at
    // this rate; the facility only uses the value for bookkeeping/X.
    uint64_t interrupt_clock_hz = 1'000;
    // Graceful-degradation policy (drought escalation, handler quarantine,
    // batch caps). Disabled by default: every check then takes the
    // next-deadline fast gate.
    DegradationPolicy::Config degradation;
    // A drain (one OnTriggerState that found work) reads the clock once up
    // front and stamps every dispatched event's fired_tick from that cached
    // read, re-reading only after this many dispatches. This amortizes the
    // clock access that used to be paid per event while keeping fired_tick
    // staleness bounded (at most this many handler executions behind the
    // real clock), so the paper's T < actual < T + X + 1 dispatch bound is
    // preserved: the cached read never affects *when* events run, only the
    // timestamp handed to them. Minimum 1 (= the old read-per-event
    // behaviour).
    uint32_t max_dispatches_per_clock_read = 64;
  };

  // Context passed to a firing handler.
  struct FireInfo {
    // The tick T counts from: MeasureTime() at a plain schedule or re-arm,
    // the caller's anchor at an anchored one (a cross-core command's enqueue
    // tick), so lateness also counts the time the command waited to apply.
    uint64_t scheduled_tick;
    uint64_t delta_ticks;     // the T passed to ScheduleSoftEvent
    uint64_t fired_tick;      // MeasureTime() at dispatch
    TriggerSource source;     // which trigger state (or backup) fired it
    uint32_t handler_tag = 0; // caller-chosen handler class (0 = anonymous)
    // Lateness beyond the scheduled delay: fired - scheduled - T. Always
    // >= 1 on a healthy clock because of the +1 rounding tick (the paper's
    // d = lateness - 1); clamped to 0 when a clock anomaly (stall/backward
    // step) makes the dispatch tick precede the nominal due time, so the
    // anomaly cannot wrap to a huge uint64 and poison Stats::lateness_ticks.
    uint64_t lateness_ticks() const {
      uint64_t due = scheduled_tick + delta_ticks;
      return fired_tick < due ? 0 : fired_tick - due;
    }
  };
  using Handler = std::function<void(const FireInfo&)>;

  SoftTimerFacility(const ClockSource* clock, Config config);

  // --- The paper's API -------------------------------------------------
  uint64_t MeasureResolution() const { return clock_->ResolutionHz(); }
  uint64_t MeasureTime() const { return clock_->NowTicks(); }
  uint64_t InterruptClockResolution() const { return config_.interrupt_clock_hz; }

  // Schedules `handler` to be called at least `delta_ticks` ticks in the
  // future (at the first trigger state or backup interrupt past the bound).
  // `handler_tag` names the handler class for budget/quarantine accounting
  // under the degradation policy; tag 0 is anonymous and exempt.
  SoftEventId ScheduleSoftEvent(uint64_t delta_ticks, Handler handler,
                                uint32_t handler_tag = 0) {
    return ScheduleSoftEventFrom(MeasureTime(), delta_ticks, std::move(handler),
                                 handler_tag);
  }

  // The anchored schedule that ScheduleSoftEvent forwards to: T counts from
  // `anchor_tick` (at most now) instead of from now, so the event is due at
  // anchor + T + 1 and fires at the next check when that has already passed;
  // FireInfo::scheduled_tick reports the anchor. An opaque non-zero `cookie`
  // is handed to the retire hook (below) when the event is dispatched or
  // cancelled. ShardedSoftTimerRuntime anchors a cross-core schedule at its
  // enqueue tick and ties it back to its remote-id table entry by cookie,
  // without wrapping the handler in an extra (allocating) closure.
  SoftEventId ScheduleSoftEventFrom(uint64_t anchor_tick, uint64_t delta_ticks,
                                    Handler handler, uint32_t handler_tag = 0,
                                    uint64_t cookie = 0);

  // Cancels a pending event; false if it fired or was already cancelled.
  // An event the policy deferred is still pending under its own id.
  bool CancelSoftEvent(SoftEventId id);

  // Re-arms a pending event to fire `delta_ticks` from now, preserving its
  // handler, tag, cookie and id (no retire: the event stays alive). Returns
  // false if the event already fired, was cancelled or is being dispatched.
  // The paper's deadline rule applies as if freshly scheduled: the event
  // fires at the first trigger state past MeasureTime() + delta + 1.
  // Zero-alloc.
  bool RescheduleSoftEvent(SoftEventId id, uint64_t delta_ticks) {
    return RescheduleSoftEventFrom(id, MeasureTime(), delta_ticks);
  }

  // The anchored re-arm that RescheduleSoftEvent forwards to: T counts from
  // `anchor_tick`, exactly as in ScheduleSoftEventFrom.
  bool RescheduleSoftEventFrom(SoftEventId id, uint64_t anchor_tick,
                               uint64_t delta_ticks);

  // Raw-function-pointer hook invoked when an event carrying a non-zero
  // cookie is retired: pre-handler at dispatch (a policy deferral is not a
  // dispatch), or on a successful CancelSoftEvent. So each cookie is
  // retired exactly once. Kept as a plain pointer + context so installing
  // and firing it never allocates.
  using EventRetiredFn = void (*)(void* ctx, uint64_t cookie);
  void set_event_retired_hook(EventRetiredFn fn, void* ctx) {
    event_retired_fn_ = fn;
    event_retired_ctx_ = ctx;
  }

  // --- Host integration points ----------------------------------------
  // The "check for pending soft timer events" performed in a trigger state:
  // reads the clock, compares against the cached next deadline, and
  // dispatches anything due. Returns the number of handlers invoked. When
  // nothing is due (the overwhelmingly common case) this is one clock read
  // and one compare.
  // SOFTTIMER_HOT
  size_t OnTriggerState(TriggerSource source) {
    ++stats_.checks;
    // Fast gate: next_deadline_ is a conservative lower bound on the
    // earliest pending deadline (UINT64_MAX when the queue is empty). A
    // policy skips it: every check must reach its density tracker.
    if (policy_ == nullptr && MeasureTime() < next_deadline_) [[likely]] {
      return 0;
    }
    return ExpireDue(source);
  }

  // Called from the periodic backup timer interrupt; dispatches overdue
  // events that no trigger state picked up.
  size_t OnBackupInterrupt() { return OnTriggerState(TriggerSource::kBackupIntr); }

  // Raw-function-pointer hook invoked once per dispatched handler, before
  // the handler, with the event's FireInfo. It returns the dispatch's cost
  // in measurement ticks, which the degradation policy (when enabled)
  // charges to the handler's tag after the handler returns, to enforce the
  // per-dispatch handler budget. The host is the only party that knows the
  // charged CPU cost: machine::Kernel charges it here, ShardedRtHost sorts a
  // spinning shard's dispatches into its steal-clean histogram and returns
  // 0. Without a hook, costs read as 0 and no handler is ever quarantined.
  // Kept as a plain pointer + context, like the retire hook, so installing
  // and firing it never allocates.
  using DispatchHookFn = uint64_t (*)(void* ctx, const FireInfo& info);
  void set_dispatch_hook(DispatchHookFn fn, void* ctx) {
    dispatch_hook_fn_ = fn;
    dispatch_hook_ctx_ = ctx;
  }

  // Observer invoked after each ScheduleSoftEvent. The host's idle loop uses
  // this to resume polling when a new event lands while the CPU is idle
  // (Section 5.2's halt condition (a) can newly fail).
  void set_schedule_observer(std::function<void()> obs) {
    schedule_observer_ = std::move(obs);
  }

  // --- Degradation ------------------------------------------------------
  // Non-null when Config::degradation.enabled.
  DegradationPolicy* degradation() { return policy_.get(); }
  const DegradationPolicy* degradation() const { return policy_.get(); }

  // Backup-rate multiplier the host should run its periodic interrupt at
  // (1 = nominal; the policy escalates it during droughts).
  uint32_t backup_rate_multiplier() const {
    return policy_ ? policy_->backup_rate_multiplier() : 1;
  }

  // Registers a drought-transition listener (no-op without a policy).
  void AddDroughtListener(std::function<void(bool entering)> fn) {
    if (policy_) {
      policy_->AddDroughtListener(std::move(fn));
    }
  }

  // --- Introspection ----------------------------------------------------
  // Earliest pending deadline (absolute tick), if any. The idle loop uses
  // this to decide whether to halt (Section 5.2: halt when nothing is due
  // before the next backup interrupt). Exact (reads the queue, not the
  // fast-gate cache).
  std::optional<uint64_t> NextDeadlineTick() const { return queue_.EarliestDeadline(); }

  size_t pending_count() const { return queue_.size(); }

  // Releases fully-free timer-node slab chunks (see HeapTimerQueue::TrimSlab);
  // returns chunks released. A maintenance call, not a hot-path one.
  size_t TrimSlabStorage() { return queue_.TrimSlab(); }

  // X = measurement ticks per backup-interrupt period.
  uint64_t ticks_per_backup_interval() const;

  struct Stats {
    uint64_t checks = 0;            // OnTriggerState calls
    uint64_t dispatches = 0;        // handlers invoked
    uint64_t scheduled = 0;
    uint64_t cancelled = 0;
    uint64_t rescheduled = 0;       // RescheduleSoftEvent re-arms
    // Dispatches broken down by the trigger source that performed them.
    std::array<uint64_t, kNumTriggerSources> dispatches_by_source{};
    // Distribution of handler lateness (FireInfo::lateness_ticks), in ticks.
    // The one lateness recorder: ShardedRtHost reports it as a shard's raw
    // dispatch-lateness histogram.
    LatencyHistogram lateness_ticks;
    // Timer-node slab occupancy (refreshed from the queue on stats() reads):
    // slots currently backed by storage, and allocated nodes among them.
    uint32_t slab_capacity = 0;
    uint32_t slab_live = 0;
  };
  const Stats& stats() const {
    TimerSlabStats slab = queue_.slab_stats();
    stats_.slab_capacity = slab.capacity;
    stats_.slab_live = slab.live;
    return stats_;
  }
  void ResetStats() { stats_ = Stats{}; }

 private:
  // The queue-node handler installed by ScheduleSoftEvent: forwards to the
  // facility's single dispatch entry point. The event's scheduling metadata
  // lives in the node's TimerPayload, not in a closure capture, so the
  // whole thunk is {facility, handler} and fits the handler slot's inline
  // buffer.
  struct DispatchThunk {
    SoftTimerFacility* facility;
    Handler handler;
    void operator()(const TimerFired& fired) {
      facility->DispatchFired(fired, handler);
    }
  };

  // The state of one check in progress (one ExpireDue), kept on that
  // ExpireDue's stack. A handler that reaches a trigger state runs a nested
  // check with its own state, so it cannot clobber the outer one's.
  struct CheckState {
    // Trigger source of the check, so each dispatch attributes its FireInfo.
    TriggerSource source;
    // Cached clock read stamped into FireInfo::fired_tick for the drain
    // batch; seeded from the check's own read and refreshed every
    // max_dispatches_per_clock_read dispatches.
    uint64_t fired_tick;
    uint32_t reads_left;
    // Handlers invoked by the check so far.
    size_t dispatched;
  };

  // Single dispatch entry point: defers the event under its own id when the
  // policy says so (quarantined tag at a non-backup check, or batch cap
  // reached); otherwise builds FireInfo from the fired payload, updates
  // stats, runs the hooks and the handler.
  void DispatchFired(const TimerFired& fired, const Handler& handler);

  // Slow path of the check: feeds the policy's density tracker (if any),
  // expires due timers and refreshes the next-deadline gate from the queue.
  // Returns the number of handlers invoked.
  size_t ExpireDue(TriggerSource source);

  const ClockSource* clock_;
  Config config_;
  HeapTimerQueue queue_;
  std::unique_ptr<DegradationPolicy> policy_;
  std::function<void()> schedule_observer_;
  EventRetiredFn event_retired_fn_ = nullptr;
  void* event_retired_ctx_ = nullptr;
  DispatchHookFn dispatch_hook_fn_ = nullptr;
  void* dispatch_hook_ctx_ = nullptr;
  // Conservative cached copy of the earliest pending deadline (read only
  // when no policy is configured). Invariant: next_deadline_ <= the queue's
  // true earliest deadline; UINT64_MAX when (believed) empty. May lag low
  // after a cancel - that costs one slow-path check, never a missed event.
  uint64_t next_deadline_ = UINT64_MAX;
  // The innermost check in progress, null outside one; DispatchFired only
  // runs inside ExpireDue, which sets it and restores the outer one.
  CheckState* check_ = nullptr;
  // Mutable so stats() can refresh the slab occupancy fields on read.
  mutable Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_SOFT_TIMER_FACILITY_H_
