// TimerQueue: the data-structure interface under the soft-timer facility.
//
// The paper maintains scheduled soft-timer events in "a modified form of
// timing wheels [Varghese & Lauck]". This library provides two
// interchangeable implementations behind one interface (its hashed timing
// wheel lost to the heap on every composed workload; DESIGN.md section 13):
//
//   HeapTimerQueue           - binary heap; every host's default and the
//                              oracle of the differential tests.
//   CalloutListTimerQueue    - sorted list; the 4.3BSD callout structure
//                              timing wheels were invented to replace.
//
// Both deal in abstract unsigned "ticks" (the facility maps its
// measurement clock onto ticks). Deadlines are absolute tick values.
//
// Hot-path design: a scheduled timer is a typed node, not a heap-allocated
// closure. The caller hands the queue a POD-ish TimerPayload whose handler
// lives in a small-buffer TimerHandlerSlot, the queue stores it in
// slab-recycled node storage (see timer_slab.h), and expiry fires the slot
// in place. Steady-state schedule / cancel / fire performs zero heap
// allocations. TimerIds are generation-counted, so a stale id whose slab
// slot was recycled is rejected rather than cancelling a stranger.
//
// Semantics shared by all implementations (enforced by the conformance suite
// in tests/timer_queue_conformance_test.cc):
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
//  * Update(id, new_deadline) atomically moves a live timer to a new
//    deadline, preserving its payload, and returns the id that names the
//    timer afterwards (an invalid id for stale/fired/cancelled inputs).
//    Observably it is cancel+reschedule: the moved timer fires at the new
//    deadline in fresh schedule order, past deadlines clamp like Schedule.

#ifndef SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_
#define SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "src/timer/timer_slab.h"

namespace softtimer {

// Identifies one scheduled timer. Default-constructed ids are invalid.
// Packs {shard, generation, slab slot index}; see timer_slab.h.
struct TimerId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

struct TimerPayload;

// Passed to the fired handler: the node's payload (movable: a handler may
// steal its own state to relink/defer itself), the deadline the node was
// stored under, and the id it was scheduled as.
struct TimerFired {
  TimerPayload* payload;
  uint64_t deadline_tick;
  TimerId id;
};

// Small-buffer, move-only callable of signature void(const TimerFired&).
// Callables up to kInlineBytes are stored inline (no heap allocation on the
// schedule path); larger ones fall back to a boxed heap copy so correctness
// never depends on capture size.
class TimerHandlerSlot {
 public:
  static constexpr size_t kInlineBytes = 48;

  TimerHandlerSlot() = default;
  TimerHandlerSlot(TimerHandlerSlot&& other) noexcept { MoveFrom(other); }
  TimerHandlerSlot& operator=(TimerHandlerSlot&& other) noexcept {
    if (this != &other) {
      reset();
      MoveFrom(other);
    }
    return *this;
  }
  TimerHandlerSlot(const TimerHandlerSlot&) = delete;
  TimerHandlerSlot& operator=(const TimerHandlerSlot&) = delete;
  ~TimerHandlerSlot() { reset(); }

  template <typename F>
  void emplace(F fn) {
    static_assert(std::is_invocable_v<F&, const TimerFired&>);
    if constexpr (sizeof(F) <= kInlineBytes &&
                  std::is_nothrow_move_constructible_v<F>) {
      reset();
      ::new (static_cast<void*>(storage_)) F(std::move(fn));
      ops_ = &OpsFor<F>::kOps;
    } else {
      emplace(Boxed<F>{std::make_unique<F>(std::move(fn))});
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  bool empty() const { return ops_ == nullptr; }
  explicit operator bool() const { return ops_ != nullptr; }

  void Invoke(const TimerFired& fired) { ops_->invoke(storage_, fired); }

 private:
  struct Ops {
    void (*invoke)(void* storage, const TimerFired& fired);
    void (*move)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* storage);
  };

  template <typename F>
  struct OpsFor {
    static void Invoke(void* storage, const TimerFired& fired) {
      (*static_cast<F*>(storage))(fired);
    }
    static void Move(void* dst, void* src) {
      F* from = static_cast<F*>(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void Destroy(void* storage) { static_cast<F*>(storage)->~F(); }
    static constexpr Ops kOps{&Invoke, &Move, &Destroy};
  };

  // Fallback for callables too large (or not nothrow-movable) for the
  // inline buffer.
  template <typename F>
  struct Boxed {
    std::unique_ptr<F> fn;
    void operator()(const TimerFired& fired) { (*fn)(fired); }
  };

  void MoveFrom(TimerHandlerSlot& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

// The typed timer node contents: POD bookkeeping the dispatch entry point
// reads back at fire time, plus the handler slot. The facility stores its
// scheduling metadata here instead of capturing it in a closure.
struct TimerPayload {
  uint64_t scheduled_tick = 0;  // tick the event was scheduled at
  uint64_t delta_ticks = 0;     // the requested delay T
  uint64_t user_data = 0;       // caller-owned (facility: original public id)
  uint32_t tag = 0;             // caller-chosen handler class
  TimerHandlerSlot handler;
};

class TimerQueue {
 public:
  virtual ~TimerQueue() = default;

  // Schedules `payload` to fire once `ExpireUpTo(now)` is called with
  // now >= deadline_tick. The payload (including its handler slot) is moved
  // into slab node storage: no heap allocation in steady state.
  virtual TimerId Schedule(uint64_t deadline_tick, TimerPayload payload) = 0;

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
  virtual bool Cancel(TimerId id) = 0;

  // Moves a live timer to `new_deadline_tick`, preserving its payload, and
  // returns the id naming the timer afterwards; an invalid id if `id` is
  // stale/fired/cancelled (the reused slot, if any, is left untouched).
  // An allocation-free cancel+reschedule: the returned id carries a fresh
  // generation.
  TimerId Update(TimerId id, uint64_t new_deadline_tick);

  // The live timer's payload for in-place metadata edits, or nullptr for
  // stale/fired/cancelled ids. Callers must not touch the handler slot of a
  // node that is being fired.
  virtual TimerPayload* MutablePayload(TimerId id) = 0;

  // The pending timer's payload user_data, or 0 for stale/fired/cancelled
  // ids. The facility's cancel path reads this before Cancel destroys the
  // payload, so a cancelled event's cookie can still be retired.
  virtual uint64_t PeekUserData(TimerId id) const = 0;

  // Fires all timers with deadline <= now_tick; returns how many fired.
  virtual size_t ExpireUpTo(uint64_t now_tick) = 0;

  // Exact earliest pending deadline, or nullopt when empty.
  virtual std::optional<uint64_t> EarliestDeadline() const = 0;

  // Number of pending timers.
  virtual size_t size() const = 0;
  bool empty() const { return size() == 0; }

  // Capacity/occupancy of the backing node slab (timer_slab.h).
  virtual TimerSlabStats slab_stats() const = 0;

  // Releases fully-free slab chunks back to the allocator (the slab
  // otherwise grows to the high-water mark and stays there). Returns the
  // number of chunks released. Outstanding stale TimerIds stay safely
  // rejectable afterwards.
  virtual size_t TrimSlab() = 0;

 private:
  template <typename F>
  struct CallbackThunk {
    F fn;
    void operator()(const TimerFired&) { fn(); }
  };
};

// Factory selector used by SoftTimerFacility config. The values are pinned:
// gtest prints a parameter's bytes into each parameterized test's name, so a
// kind keeps its value when another kind is deleted (1 was the hashed timing
// wheel, 2 the hierarchical one).
enum class TimerQueueKind {
  kHeap = 0,
  kCalloutList = 3,
};

std::unique_ptr<TimerQueue> MakeTimerQueue(TimerQueueKind kind);

const char* TimerQueueKindName(TimerQueueKind kind);

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_
