#include "src/timer/timer_queue.h"

#include "src/timer/callout_list_timer_queue.h"
#include "src/timer/hashed_timing_wheel.h"
#include "src/timer/heap_timer_queue.h"

namespace softtimer {

// Update: cancel+reschedule with the payload carried across on the stack.
// MutablePayload gates out kCancelledDue nodes (their Cancel already
// returned true once), so the Cancel below can only fail if the id went
// stale between the two calls - impossible under the single-threaded queue
// contract, but restore-and-bail keeps the operation self-contained.
// SOFTTIMER_HOT
TimerId TimerQueue::Update(TimerId id, uint64_t new_deadline_tick) {
  TimerPayload* payload = MutablePayload(id);
  if (payload == nullptr) {
    return TimerId{};
  }
  TimerPayload moved = std::move(*payload);
  if (!Cancel(id)) {
    *payload = std::move(moved);
    return TimerId{};
  }
  return Schedule(new_deadline_tick, std::move(moved));
}

std::unique_ptr<TimerQueue> MakeTimerQueue(TimerQueueKind kind, uint64_t tick_granularity) {
  switch (kind) {
    case TimerQueueKind::kHeap:
      return std::make_unique<HeapTimerQueue>();
    case TimerQueueKind::kHashedWheel:
      return std::make_unique<HashedTimingWheel>(tick_granularity);
    case TimerQueueKind::kCalloutList:
      return std::make_unique<CalloutListTimerQueue>();
  }
  return nullptr;
}

const char* TimerQueueKindName(TimerQueueKind kind) {
  switch (kind) {
    case TimerQueueKind::kHeap:
      return "heap";
    case TimerQueueKind::kHashedWheel:
      return "hashed-wheel";
    case TimerQueueKind::kCalloutList:
      return "callout-list";
  }
  return "unknown";
}

}  // namespace softtimer
