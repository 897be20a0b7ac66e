// Single-level hashed timing wheel (Varghese & Lauck, scheme 6).
//
// An array of `slot_count` buckets, each `granularity` ticks wide, indexed by
// (deadline / granularity) % slot_count. Buckets are intrusive doubly-linked
// lists over slab-recycled nodes (timer_slab.h), so schedule and cancel are
// O(1) with zero steady-state heap allocations, and cancel unlinks eagerly
// (no tombstones to prune). Nodes carry their absolute deadline, so a bucket
// can hold timers from several "rounds"; expiry filters by deadline. Expiry
// visits the buckets whose tick range elapsed since the previous expiry,
// which is O(elapsed / granularity) bounded by slot_count (plus the fired
// timers).
//
// The wheel keeps an exact earliest-deadline cache. When invalidated, it is
// recomputed by walking bucket heads outward from the cursor and stopping as
// soon as no later bucket could hold a smaller deadline - O(occupied span),
// not O(live entries). This keeps ExpireUpTo's nothing-due case (the
// facility's per-trigger-state check) at a compare and a cursor bump.
//
// ExpireUpTo must not be re-entered from a fired handler's own call stack in
// a way that observes batch ordering: a re-entrant call is memory-safe (the
// due batch is detached first) but fires its own due set immediately.
// EarliestDeadline queried from inside a firing handler does not count
// not-yet-fired timers of the current batch (their deadlines are already in
// the past); the cache is re-invalidated when the batch completes.

#ifndef SOFTTIMER_SRC_TIMER_HASHED_TIMING_WHEEL_H_
#define SOFTTIMER_SRC_TIMER_HASHED_TIMING_WHEEL_H_

#include <vector>

#include "src/timer/timer_queue.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class HashedTimingWheel : public TimerQueue {
 public:
  explicit HashedTimingWheel(uint64_t granularity = 1, size_t slot_count = 1024);

  using TimerQueue::Schedule;
  TimerId Schedule(uint64_t deadline_tick, TimerPayload payload) override;
  bool Cancel(TimerId id) override;
  size_t ExpireUpTo(uint64_t now_tick) override;
  std::optional<uint64_t> EarliestDeadline() const override;
  size_t size() const override { return live_count_; }
  std::string name() const override { return "hashed-wheel"; }
  TimerSlabStats slab_stats() const override { return slab_.stats(); }
  // Bucket links only ever reach live nodes, so the slab can trim directly.
  size_t TrimSlab() override { return slab_.Trim(); }
  uint64_t PeekUserData(TimerId id) const override {
    return slab_.IsCurrent(id.value)
               ? slab_.at(TimerIdIndex(id.value)).payload.user_data
               : 0;
  }
  // kCancelledDue is excluded: its Cancel already returned true once, so
  // TimerQueue::Update must see it as stale, not revive it.
  TimerPayload* MutablePayload(TimerId id) override {
    if (!slab_.IsCurrent(id.value)) {
      return nullptr;
    }
    Node& node = slab_.at(TimerIdIndex(id.value));
    return node.state == TimerNodeState::kCancelledDue ? nullptr
                                                       : &node.payload;
  }

 private:
  struct Node {
    TimerPayload payload;
    uint64_t deadline = 0;
    uint64_t seq = 0;
    uint32_t generation = 1;          // slab convention (see timer_slab.h)
    uint32_t next = kNilTimerIndex;   // bucket link / free-list link
    uint32_t prev = kNilTimerIndex;
    TimerNodeState state = TimerNodeState::kFree;
  };

  size_t SlotFor(uint64_t deadline) const {
    return static_cast<size_t>((deadline / granularity_) % slot_count_);
  }

  void LinkIntoBucket(uint32_t index, size_t slot);
  void UnlinkFromBucket(uint32_t index, size_t slot);
  void FreeNode(uint32_t index);

  uint64_t granularity_;
  size_t slot_count_;
  // Next tick value not yet covered by an ExpireUpTo walk. Deadlines below
  // this are clamped up to it at Schedule time.
  uint64_t cursor_ = 0;
  TimerSlab<Node> slab_;
  std::vector<uint32_t> buckets_;  // head node index per slot (kNil = empty)
  // Reused expiry batch (swapped to a local during firing, so a re-entrant
  // ExpireUpTo from a handler cannot clobber an in-progress batch).
  std::vector<uint32_t> due_scratch_;
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  // Exact earliest pending deadline; nullopt means empty.
  // earliest_known_ == false means "unknown, recompute on demand".
  mutable std::optional<uint64_t> earliest_cache_;
  mutable bool earliest_known_ = true;  // empty wheel: known, no value
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_HASHED_TIMING_WHEEL_H_
