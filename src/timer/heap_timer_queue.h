// Binary-heap TimerQueue. O(log n) schedule, O(1) earliest-deadline,
// lazy-deletion cancel. Every host's default queue (DESIGN.md section 13
// has the measurements that chose it).
//
// Payloads live in slab-recycled nodes (timer_slab.h); the heap itself holds
// only {deadline, seq, slot, generation} entries, so a cancelled timer's
// entry goes stale (its generation no longer matches the slot) and is
// skimmed lazily at the top. When stale entries outnumber live ones the heap
// compacts in place (remove_if + make_heap, no allocation), so a
// schedule/cancel-only workload cannot grow the vector unboundedly.
// Steady-state schedule/cancel/fire performs zero heap allocations once the
// slab and the heap vector reach the workload's high-water mark.

#ifndef SOFTTIMER_SRC_TIMER_HEAP_TIMER_QUEUE_H_
#define SOFTTIMER_SRC_TIMER_HEAP_TIMER_QUEUE_H_

#include <vector>

#include "src/timer/timer_queue.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class HeapTimerQueue : public TimerQueue {
 public:
  HeapTimerQueue() = default;

  using TimerQueue::Schedule;
  TimerId Schedule(uint64_t deadline_tick, TimerPayload payload) override;
  bool Cancel(TimerId id) override;
  size_t ExpireUpTo(uint64_t now_tick) override;
  std::optional<uint64_t> EarliestDeadline() const override;
  size_t size() const override { return live_count_; }
  TimerSlabStats slab_stats() const override { return slab_.stats(); }
  // Lazily-deleted heap entries may reference freed slots, so compact (drop
  // every stale entry) before releasing chunks out from under them.
  size_t TrimSlab() override {
    Compact();
    return slab_.Trim();
  }
  uint64_t PeekUserData(TimerId id) const override {
    return slab_.IsCurrent(id.value)
               ? slab_.at(TimerIdIndex(id.value)).payload.user_data
               : 0;
  }
  TimerPayload* MutablePayload(TimerId id) override {
    return slab_.IsCurrent(id.value)
               ? &slab_.at(TimerIdIndex(id.value)).payload
               : nullptr;
  }

 private:
  struct Node {
    TimerPayload payload;
    uint64_t deadline = 0;
    uint32_t generation = 1;         // slab convention (see timer_slab.h)
    uint32_t next = kNilTimerIndex;  // free-list link
    TimerNodeState state = TimerNodeState::kFree;
  };

  struct HeapEntry {
    uint64_t deadline;
    uint64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  // Min-heap order on (deadline, seq).
  struct EntryAfter {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.deadline != b.deadline) {
        return a.deadline > b.deadline;
      }
      return a.seq > b.seq;
    }
  };

  // True when the entry still refers to the live timer it was pushed for.
  bool EntryCurrent(const HeapEntry& e) const {
    return slab_.at(e.slot).generation == e.generation;
  }
  void SkimCancelled() const;
  // Drops every stale entry and re-heapifies, in place.
  void Compact() const;
  // Capacity growth for heap_, split out so Schedule's push_back never takes
  // the reallocating branch (see the SOFTTIMER_COLD marker on the definition).
  void GrowHeap();

  // Deadlines below this are clamped up to it: a past deadline fires on the
  // next ExpireUpTo.
  uint64_t cursor_ = 0;
  mutable std::vector<HeapEntry> heap_;
  mutable size_t stale_count_ = 0;
  TimerSlab<Node> slab_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_HEAP_TIMER_QUEUE_H_
