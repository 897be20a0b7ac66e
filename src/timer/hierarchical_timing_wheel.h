// Hierarchical timing wheel (Varghese & Lauck, scheme 7).
//
// `level_count` wheels of `slots_per_level` buckets each; level l has bucket
// width granularity * slots_per_level^l ticks. A timer is inserted at the
// finest level whose horizon covers its delay; as coarse buckets elapse their
// entries cascade down to finer levels. Compared with the hashed wheel this
// bounds per-bucket occupancy for widely-spread deadlines at the cost of
// re-insertion work on cascade.
//
// Buckets are intrusive doubly-linked lists over slab-recycled nodes
// (timer_slab.h): schedule, cancel, and cascade relink nodes in place with
// zero steady-state heap allocations, and TimerIds are generation-counted so
// stale ids of recycled slots are rejected. Each node remembers its current
// (level, bucket) so cancel can unlink in O(1) even after cascades moved it.
//
// The earliest-deadline cache is recomputed, when invalidated, by walking
// each level's bucket heads outward from the cursor with a per-bucket floor
// early-exit (O(occupied span), not O(live)). The same caveats as the hashed
// wheel apply to EarliestDeadline queried from inside a firing handler.

#ifndef SOFTTIMER_SRC_TIMER_HIERARCHICAL_TIMING_WHEEL_H_
#define SOFTTIMER_SRC_TIMER_HIERARCHICAL_TIMING_WHEEL_H_

#include <vector>

#include "src/timer/timer_queue.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class HierarchicalTimingWheel : public TimerQueue {
 public:
  explicit HierarchicalTimingWheel(uint64_t granularity = 1,
                                   size_t slots_per_level = 256,
                                   size_t level_count = 4);

  using TimerQueue::Schedule;
  TimerId Schedule(uint64_t deadline_tick, TimerPayload payload) override;
  bool Cancel(TimerId id) override;
  size_t ExpireUpTo(uint64_t now_tick) override;
  std::optional<uint64_t> EarliestDeadline() const override;
  size_t size() const override { return live_count_; }
  std::string name() const override { return "hier-wheel"; }
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
    uint32_t generation = 1;         // slab convention (see timer_slab.h)
    uint32_t next = kNilTimerIndex;  // bucket link / free-list link
    uint32_t prev = kNilTimerIndex;
    uint32_t bucket = 0;             // current slot within `level`
    uint8_t level = 0;               // current wheel level
    TimerNodeState state = TimerNodeState::kFree;
  };
  struct Level {
    uint64_t bucket_width;        // ticks per bucket
    uint64_t cascade_cursor;      // next tick not yet cascaded
    std::vector<uint32_t> heads;  // head node index per slot (kNil = empty)
  };

  // Links `index` into the finest level whose horizon covers
  // (deadline - cursor_), recording (level, bucket) in the node.
  void Place(uint32_t index, uint64_t deadline);
  void LinkIntoBucket(uint32_t index, size_t level, size_t bucket);
  void UnlinkFromBucket(uint32_t index);
  void FreeNode(uint32_t index);
  // Moves entries out of coarse buckets whose time range has been reached,
  // down to finer levels (or into `batch` when already expired).
  void CascadeUpTo(uint64_t now_tick, std::vector<uint32_t>* batch);

  uint64_t granularity_;
  size_t slots_per_level_;
  uint64_t cursor_ = 0;  // next tick not yet covered at level 0
  std::vector<Level> levels_;
  TimerSlab<Node> slab_;
  std::vector<uint32_t> due_scratch_;  // reused expiry batch
  uint64_t next_seq_ = 0;
  size_t live_count_ = 0;
  mutable std::optional<uint64_t> earliest_cache_;
  mutable bool earliest_known_ = true;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_HIERARCHICAL_TIMING_WHEEL_H_
