#include "src/timer/heap_timer_queue.h"

#include <algorithm>
#include <utility>

namespace softtimer {

// SOFTTIMER_COLD: amortized heap-vector growth - entered only when the entry
// count breaks its previous capacity high-water mark; after warmup the heap
// runs at capacity and Schedule's push_back below never reallocates.
void HeapTimerQueue::GrowHeap() {
  heap_.reserve(heap_.capacity() == 0 ? 64 : heap_.capacity() * 2);
}

// SOFTTIMER_HOT
TimerId HeapTimerQueue::Schedule(uint64_t deadline_tick, TimerPayload payload) {
  if (deadline_tick < cursor_) {
    deadline_tick = cursor_;
  }
  uint32_t index = slab_.Allocate();
  Node& n = slab_.at(index);
  n.payload = std::move(payload);
  n.deadline = deadline_tick;
  if (heap_.size() == heap_.capacity()) {
    GrowHeap();
  }
  heap_.push_back(HeapEntry{deadline_tick, next_seq_++, index, n.generation});  // lint:allow-alloc
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
  ++live_count_;
  return TimerId{PackTimerIdValue(index, n.generation)};
}

// SOFTTIMER_HOT
bool HeapTimerQueue::Cancel(TimerId id) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  // Free the slot now (bumping its generation); the heap entry goes stale
  // and is skimmed when it reaches the top, or swept out by Compact below.
  uint32_t index = TimerIdIndex(id.value);
  Node& n = slab_.at(index);
  n.payload.handler.reset();
  slab_.Free(index);
  --live_count_;
  ++stale_count_;
  // Without compaction, a schedule/cancel-only workload (no expiry in
  // between) would grow the heap without bound. Sweeping once stale entries
  // outnumber live ones keeps the vector at <= 2x the live high-water mark
  // and costs amortized O(1) per cancel.
  if (stale_count_ > live_count_ && heap_.size() > 64) {
    Compact();
  }
  return true;
}

// Update: cancel+reschedule with the payload carried across on the stack.
// MutablePayload gates out stale ids, so the Cancel below can only fail if
// the id went stale between the two calls - impossible under the
// single-threaded queue contract, but restore-and-bail keeps the operation
// self-contained.
// SOFTTIMER_HOT
TimerId HeapTimerQueue::Update(TimerId id, uint64_t new_deadline_tick) {
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

void HeapTimerQueue::Compact() const {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return !EntryCurrent(e); }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
  stale_count_ = 0;
}

void HeapTimerQueue::SkimCancelled() const {
  while (!heap_.empty() && !EntryCurrent(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    --stale_count_;
  }
}

size_t HeapTimerQueue::ExpireUpTo(uint64_t now_tick) {
  if (now_tick + 1 > cursor_) {
    cursor_ = now_tick + 1;
  }
  size_t fired = 0;
  for (;;) {
    SkimCancelled();
    if (heap_.empty() || heap_.front().deadline > now_tick) {
      break;
    }
    HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    Node& n = slab_.at(top.slot);
    // Move the payload out and recycle the node before invoking, so the
    // handler can schedule (reusing this slot) or cancel stale ids.
    TimerPayload payload = std::move(n.payload);
    TimerFired fired_info{&payload, n.deadline,
                          TimerId{PackTimerIdValue(top.slot, n.generation)}};
    slab_.Free(top.slot);
    --live_count_;
    ++fired;
    payload.handler.Invoke(fired_info);
  }
  return fired;
}

std::optional<uint64_t> HeapTimerQueue::EarliestDeadline() const {
  SkimCancelled();
  if (heap_.empty()) {
    return std::nullopt;
  }
  return heap_.front().deadline;
}

}  // namespace softtimer
