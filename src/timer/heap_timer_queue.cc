#include "src/timer/heap_timer_queue.h"

#include <algorithm>
#include <utility>

namespace softtimer {

// SOFTTIMER_COLD: amortized heap-vector growth - entered only when the entry
// count breaks its previous capacity high-water mark; after warmup the heap
// runs at capacity and PushEntry's push_back below never reallocates.
void HeapTimerQueue::GrowHeap() {
  heap_.reserve(heap_.capacity() == 0 ? 64 : heap_.capacity() * 2);
}

// SOFTTIMER_HOT
void HeapTimerQueue::PushEntry(uint32_t index, Node& n, uint64_t deadline_tick) {
  n.deadline = deadline_tick < cursor_ ? cursor_ : deadline_tick;
  n.seq = next_seq_++;
  if (heap_.size() == heap_.capacity()) {
    GrowHeap();
  }
  heap_.push_back(HeapEntry{n.deadline, n.seq, index});
  std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

void HeapTimerQueue::NoteStaleEntry() {
  ++stale_count_;
  // Without compaction, a schedule/cancel-only workload (no expiry in
  // between) would grow the heap without bound. Sweeping once stale entries
  // outnumber live ones keeps the vector at <= 2x the live high-water mark
  // and costs amortized O(1) per stale entry.
  if (stale_count_ > live_count_ && heap_.size() > 64) {
    Compact();
  }
}

// SOFTTIMER_HOT
TimerId HeapTimerQueue::Schedule(uint64_t deadline_tick, TimerPayload payload) {
  uint32_t index = slab_.Allocate();
  Node& n = slab_.at(index);
  n.payload = std::move(payload);
  PushEntry(index, n, deadline_tick);
  ++live_count_;
  return TimerId{PackTimerIdValue(index, n.generation)};
}

// SOFTTIMER_HOT
bool HeapTimerQueue::Cancel(TimerId id) {
  if (!IsPending(id)) {
    return false;
  }
  // Free the slot now (bumping its generation); the heap entry goes stale
  // and is skimmed when it reaches the top, or swept out by Compact.
  uint32_t index = TimerIdIndex(id.value);
  slab_.at(index).payload.handler.reset();
  slab_.Free(index);
  --live_count_;
  NoteStaleEntry();
  return true;
}

// SOFTTIMER_HOT
bool HeapTimerQueue::Update(TimerId id, uint64_t new_deadline_tick) {
  if (!slab_.IsCurrent(id.value)) {
    return false;
  }
  uint32_t index = TimerIdIndex(id.value);
  Node& n = slab_.at(index);
  // A firing node's entry was popped by ExpireUpTo, so re-queuing it from
  // its own handler leaves nothing stale; a pending node's old entry goes
  // stale in place once the fresh one carries its seq.
  bool firing = n.state == TimerNodeState::kFiring;
  PushEntry(index, n, new_deadline_tick);
  if (firing) {
    n.state = TimerNodeState::kPending;
    ++live_count_;
  } else {
    NoteStaleEntry();
  }
  return true;
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
    uint32_t index = heap_.front().slot;
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    heap_.pop_back();
    // Fire in place. The node stays allocated while its handler runs, so
    // the handler can re-queue itself with Update under the same id, while
    // its id stays dead to Cancel, PeekUserData and MutablePayload.
    Node& n = slab_.at(index);
    n.state = TimerNodeState::kFiring;
    --live_count_;
    ++fired;
    TimerId id{PackTimerIdValue(index, n.generation)};
    n.payload.handler.Invoke(TimerFired{&n.payload, n.deadline, id});
    // Free it once the handler returns, unless the handler re-queued it
    // (IsCurrent also guards a node that was re-queued, cancelled and
    // trimmed away inside the handler).
    if (slab_.IsCurrent(id.value) && n.state == TimerNodeState::kFiring) {
      n.payload.handler.reset();
      slab_.Free(index);
    }
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
