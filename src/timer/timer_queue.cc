#include "src/timer/timer_queue.h"

#include "src/timer/callout_list_timer_queue.h"
#include "src/timer/heap_timer_queue.h"

namespace softtimer {

// Update: cancel+reschedule with the payload carried across on the stack.
// MutablePayload gates out stale ids, so the Cancel below can only fail if
// the id went stale between the two calls - impossible under the
// single-threaded queue contract, but restore-and-bail keeps the operation
// self-contained.
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

std::unique_ptr<TimerQueue> MakeTimerQueue(TimerQueueKind kind) {
  switch (kind) {
    case TimerQueueKind::kHeap:
      return std::make_unique<HeapTimerQueue>();
    case TimerQueueKind::kCalloutList:
      return std::make_unique<CalloutListTimerQueue>();
  }
  return nullptr;
}

const char* TimerQueueKindName(TimerQueueKind kind) {
  switch (kind) {
    case TimerQueueKind::kHeap:
      return "heap";
    case TimerQueueKind::kCalloutList:
      return "callout-list";
  }
  return "unknown";
}

}  // namespace softtimer
