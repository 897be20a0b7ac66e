// The benchmark's fixed-delay return path and the soft event that keeps a
// sleeping shard on time for it.
//
// DelayLine is a per-shard FIFO of entries, each due a fixed RTT after it
// was pushed, drained from the shard's shard_tick hook. Pushes happen on
// the owning shard in tick order, so the FIFO is also deadline order. It
// keeps its own ledger (pushed == delivered + pending) and counts every
// entry delivered before its due tick, so a correctness check can prove
// nothing was lost and nothing was read early.
//
// ShardWake keeps one soft event armed on a shard at the line's head, so a
// shard parked in its backup-bounded sleep wakes when the next entry falls
// due instead of waiting out the backup period.

#ifndef STBENCH_SRC_DELAY_LINE_H_
#define STBENCH_SRC_DELAY_LINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/sharded_soft_timer_runtime.h"

namespace stbench {

struct DelayLineStats {
  uint64_t pushed = 0;
  uint64_t delivered = 0;
  uint64_t pending = 0;
  uint64_t early = 0;      // delivered before their due tick
  uint64_t overflows = 0;  // pushes refused because the line was full
};

template <typename T>
class DelayLine {
 public:
  explicit DelayLine(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  // A due tick below the newest entry's is raised to it, keeping the FIFO
  // in deadline order (an entry may arrive late, never early).
  bool Push(uint64_t due_tick, const T& value) {
    if (tail_ - head_ == slots_.size()) {
      ++overflows_;
      return false;
    }
    due_tick = std::max(due_tick, last_due_);
    last_due_ = due_tick;
    slots_[tail_ & mask_] = Entry{due_tick, value};
    ++tail_;
    ++pushed_;
    return true;
  }

  // Due tick of the oldest entry, UINT64_MAX when empty.
  uint64_t head_due() const {
    return head_ == tail_ ? UINT64_MAX : slots_[head_ & mask_].due;
  }
  size_t size() const { return static_cast<size_t>(tail_ - head_); }

  // Delivers fn(value, due_tick) for every entry due at `now_tick`; returns
  // how many. `fn` may push.
  template <typename Fn>
  size_t Drain(uint64_t now_tick, Fn&& fn) {
    size_t n = 0;
    uint64_t horizon = now_tick + read_ahead_;
    while (head_ != tail_) {
      Entry e = slots_[head_ & mask_];
      if (e.due > horizon) {
        break;
      }
      if (now_tick < e.due) {
        ++early_;
      }
      ++head_;
      ++delivered_;
      ++n;
      fn(e.value, e.due);
    }
    return n;
  }

  DelayLineStats stats() const {
    return DelayLineStats{pushed_, delivered_, size(), early_, overflows_};
  }

  // Test hooks: read entries `ticks` before they are due, and lose the head
  // entry without accounting for it.
  void set_read_ahead_for_test(uint64_t ticks) { read_ahead_ = ticks; }
  bool DiscardHeadForTest() {
    if (head_ == tail_) {
      return false;
    }
    ++head_;
    return true;
  }

 private:
  struct Entry {
    uint64_t due = 0;
    T value{};
  };
  std::vector<Entry> slots_;
  size_t mask_ = 0;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
  uint64_t read_ahead_ = 0;
  uint64_t last_due_ = 0;
  uint64_t pushed_ = 0;
  uint64_t delivered_ = 0;
  uint64_t early_ = 0;
  uint64_t overflows_ = 0;
};

class ShardWake {
 public:
  ShardWake(softtimer::ShardedSoftTimerRuntime* rt, size_t shard)
      : rt_(rt), shard_(shard) {}
  ShardWake(const ShardWake&) = delete;
  ShardWake& operator=(const ShardWake&) = delete;

  // Ensures an event fires no later than `due_tick` (no-op for UINT64_MAX
  // or when one is already armed early enough). Owner thread only.
  void ArmBy(uint64_t due_tick, uint64_t now_tick) {
    if (due_tick == UINT64_MAX || armed_for_ <= due_tick) {
      return;
    }
    if (armed_.valid()) {
      rt_->CancelOnShard(shard_, armed_);
    }
    // The facility fires at schedule + delta + 1: aim that at due_tick.
    uint64_t delta = due_tick > now_tick + 1 ? due_tick - now_tick - 1 : 0;
    armed_ = rt_->ScheduleOnShard(
        shard_, delta, [this](const softtimer::SoftTimerFacility::FireInfo&) {
          armed_ = softtimer::SoftEventId{};
          armed_for_ = UINT64_MAX;
        });
    armed_for_ = due_tick;
  }

 private:
  softtimer::ShardedSoftTimerRuntime* rt_;
  size_t shard_;
  softtimer::SoftEventId armed_;
  uint64_t armed_for_ = UINT64_MAX;
};

}  // namespace stbench

#endif  // STBENCH_SRC_DELAY_LINE_H_
