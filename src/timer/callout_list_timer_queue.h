// Sorted callout list - the classic BSD timer structure that timing wheels
// were invented to replace (Varghese & Lauck's scheme 3; the 4.3BSD
// `callout` queue kept entries sorted by delta-encoded expiry).
//
// O(n) schedule, O(1) earliest-deadline and expiry-per-fired-timer. Included
// as the historically-faithful baseline for the microbenchmarks and as a
// second implementation under the conformance suite.
//
// The list is intrusive and doubly linked over slab-recycled nodes
// (timer_slab.h): schedule walks from the tail (O(1) for mostly-ascending
// deadlines, the same trick 4.3BSD relied on), cancel unlinks in O(1), and
// steady-state operation performs zero heap allocations. TimerIds are
// generation-counted, so stale ids of recycled slots are rejected.

#ifndef SOFTTIMER_SRC_TIMER_CALLOUT_LIST_TIMER_QUEUE_H_
#define SOFTTIMER_SRC_TIMER_CALLOUT_LIST_TIMER_QUEUE_H_

#include "src/timer/timer_queue.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class CalloutListTimerQueue : public TimerQueue {
 public:
  CalloutListTimerQueue() = default;

  using TimerQueue::Schedule;
  TimerId Schedule(uint64_t deadline_tick, TimerPayload payload) override;
  bool Cancel(TimerId id) override;
  size_t ExpireUpTo(uint64_t now_tick) override;
  std::optional<uint64_t> EarliestDeadline() const override;
  size_t size() const override { return live_count_; }
  TimerSlabStats slab_stats() const override { return slab_.stats(); }
  // List links only ever reach live nodes, so the slab can trim directly.
  size_t TrimSlab() override { return slab_.Trim(); }
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
    uint32_t next = kNilTimerIndex;  // list link / free-list link
    uint32_t prev = kNilTimerIndex;
    TimerNodeState state = TimerNodeState::kFree;
  };

  void Unlink(uint32_t index);
  void FreeNode(uint32_t index);

  uint64_t cursor_ = 0;
  TimerSlab<Node> slab_;
  // Sorted ascending by (deadline, insertion order): new entries with an
  // equal deadline go after existing ones, which preserves FIFO semantics.
  uint32_t head_ = kNilTimerIndex;
  uint32_t tail_ = kNilTimerIndex;
  size_t live_count_ = 0;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_CALLOUT_LIST_TIMER_QUEUE_H_
