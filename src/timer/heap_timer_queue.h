// HeapTimerQueue: the timer data structure under the soft-timer facility.
// A binary heap: O(log n) schedule and re-arm, O(1) earliest-deadline,
// lazy-deletion cancel. It is the one queue; the facility holds it by
// value, so schedule, cancel, re-arm and expiry are direct calls (DESIGN.md
// section 13 has the measurements that retired the timing wheels and the
// callout list).
//
// The queue deals in abstract unsigned "ticks" (the facility maps its
// measurement clock onto ticks). Deadlines are absolute tick values.
//
// Payloads (timer_queue.h) live in slab-recycled nodes (timer_slab.h); the
// heap itself holds only {deadline, seq, slot} entries. Each node records
// the seq of its one current entry, so an entry counts only while its node
// is pending and the two seqs match: a cancelled timer's entry (its node
// freed) and a re-armed timer's old entry (its node re-pushed under a new
// seq) go stale in place and are skimmed lazily at the top. When stale
// entries outnumber live ones the heap compacts in place (remove_if +
// make_heap, no allocation), so a schedule/cancel or re-arm-only workload
// cannot grow the vector unboundedly. Steady-state schedule/cancel/re-arm/
// fire performs zero heap allocations once the slab and the heap vector
// reach the workload's high-water mark.
//
// Semantics (pinned by tests/timer_queue_conformance_test.cc):
//
//  * ExpireUpTo(now) fires every pending timer with deadline <= now, in
//    (deadline, schedule-order) order.
//  * A timer scheduled with a deadline that is already in the past fires on
//    the next ExpireUpTo call.
//  * A callback may schedule or cancel timers; a timer scheduled from inside
//    a callback with an already-due deadline clamps to one tick past the
//    current ExpireUpTo time and fires on the next ExpireUpTo call that
//    reaches it.
//  * Cancel returns true exactly once per scheduled timer that has neither
//    fired nor been cancelled; stale ids (fired, cancelled, or recycled
//    slots) return false.
//  * Update(id, new_deadline) moves a live timer to a new deadline in
//    place: it keeps its slot, payload and id, and Update returns false
//    (moving nothing) for stale/fired/cancelled ids. The moved timer fires
//    at the new deadline in fresh schedule order (at the tail of its new
//    deadline's FIFO), and a past deadline clamps like Schedule.
//  * A handler runs in place, and its node is freed only after it returns.
//    While it runs, its own id is dead to Cancel, PeekUserData and
//    MutablePayload, but Update(fired.id, ...) re-queues the timer under
//    the same id (a past deadline clamps to the next ExpireUpTo).

#ifndef SOFTTIMER_SRC_TIMER_HEAP_TIMER_QUEUE_H_
#define SOFTTIMER_SRC_TIMER_HEAP_TIMER_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/timer/timer_queue.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class HeapTimerQueue {
 public:
  // Schedules `payload` to fire once `ExpireUpTo(now)` is called with
  // now >= deadline_tick. The payload (including its handler slot) is moved
  // into slab node storage: no heap allocation in steady state.
  TimerId Schedule(uint64_t deadline_tick, TimerPayload payload);

  // Convenience for plain no-argument callbacks (tests, benches, non-
  // facility users): wraps `cb` into a payload handler slot.
  template <typename F, typename = std::enable_if_t<std::is_invocable_v<F&>>>
  TimerId Schedule(uint64_t deadline_tick, F cb) {
    TimerPayload payload;
    payload.handler.emplace(CallbackThunk<std::decay_t<F>>{std::move(cb)});
    return Schedule(deadline_tick, std::move(payload));
  }

  // Cancels a pending timer. Returns false if it already fired, was already
  // cancelled, or the id is stale (its slab slot was recycled).
  bool Cancel(TimerId id);

  // Moves a live timer to `new_deadline_tick` in place: same slot, payload
  // and id. Returns false, moving nothing, if `id` is stale/fired/cancelled
  // (the reused slot, if any, is left untouched). From inside the timer's
  // own handler it re-queues the firing timer under the same id.
  bool Update(TimerId id, uint64_t new_deadline_tick);

  // The pending timer's payload for in-place metadata edits, or nullptr for
  // stale/fired/cancelled ids and for a timer whose handler is running.
  TimerPayload* MutablePayload(TimerId id) {
    return IsPending(id) ? &slab_.at(TimerIdIndex(id.value)).payload
                         : nullptr;
  }

  // The pending timer's payload user_data, or 0 for stale/fired/cancelled
  // ids and while the timer's handler runs. The facility's cancel path
  // reads this before Cancel destroys the payload, so a cancelled event's
  // cookie can still be retired.
  uint64_t PeekUserData(TimerId id) const {
    return IsPending(id) ? slab_.at(TimerIdIndex(id.value)).payload.user_data
                         : 0;
  }

  // Fires all timers with deadline <= now_tick; returns how many fired.
  size_t ExpireUpTo(uint64_t now_tick);

  // Exact earliest pending deadline, or nullopt when empty.
  std::optional<uint64_t> EarliestDeadline() const;

  // Number of pending timers.
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Capacity/occupancy of the backing node slab (timer_slab.h).
  TimerSlabStats slab_stats() const { return slab_.stats(); }

  // Releases fully-free slab chunks back to the allocator (the slab
  // otherwise grows to the high-water mark and stays there). Returns the
  // number of chunks released. Outstanding stale TimerIds stay safely
  // rejectable afterwards. Lazily-deleted heap entries may reference freed
  // slots, so this compacts (drops every stale entry) before releasing
  // chunks out from under them.
  size_t TrimSlab() {
    Compact();
    return slab_.Trim();
  }

 private:
  template <typename F>
  struct CallbackThunk {
    F fn;
    void operator()(const TimerFired&) { fn(); }
  };

  struct Node {
    TimerPayload payload;
    uint64_t deadline = 0;
    uint64_t seq = 0;                // seq of the node's one current entry
    uint32_t generation = 1;         // slab convention (see timer_slab.h)
    uint32_t next = kNilTimerIndex;  // free-list link
    TimerNodeState state = TimerNodeState::kFree;
  };

  struct HeapEntry {
    uint64_t deadline;
    uint64_t seq;
    uint32_t slot;
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

  // True while `id` names a pending timer (not fired, firing or cancelled).
  bool IsPending(TimerId id) const {
    return slab_.IsCurrent(id.value) &&
           slab_.at(TimerIdIndex(id.value)).state == TimerNodeState::kPending;
  }
  // True when the entry is its pending node's one current entry.
  bool EntryCurrent(const HeapEntry& e) const {
    const Node& n = slab_.at(e.slot);
    return n.state == TimerNodeState::kPending && n.seq == e.seq;
  }
  // Pushes node `index`'s one current entry at `deadline_tick` (clamped to
  // the cursor), under a fresh seq. Schedule and Update share it.
  void PushEntry(uint32_t index, Node& n, uint64_t deadline_tick);
  // Counts one entry that went stale in place, compacting when stale
  // entries outnumber live ones.
  void NoteStaleEntry();
  void SkimCancelled() const;
  // Drops every stale entry and re-heapifies, in place.
  void Compact() const;
  // Capacity growth for heap_, split out so PushEntry's push_back never
  // takes the reallocating branch (see the SOFTTIMER_COLD marker on the
  // definition).
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
