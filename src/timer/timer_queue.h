// Timer-queue node types: what a scheduled soft timer is made of.
//
// The paper maintains scheduled soft-timer events in "a modified form of
// timing wheels [Varghese & Lauck]". This library keeps them in one binary
// heap, HeapTimerQueue (heap_timer_queue.h); DESIGN.md section 13 has the
// measurements that retired the timing wheels and the sorted callout list.
// This header holds only the node types the heap stores and fires:
//
//   TimerId           generation-counted handle of one scheduled timer.
//   TimerPayload      the typed node contents: POD bookkeeping plus a
//                     small-buffer handler slot.
//   TimerHandlerSlot  move-only callable of signature void(const TimerFired&).
//   TimerFired        what a handler sees when its node fires.
//
// Hot-path design: a scheduled timer is a typed node, not a heap-allocated
// closure. The caller hands the queue a POD-ish TimerPayload whose handler
// lives in a small-buffer TimerHandlerSlot, the queue stores it in
// slab-recycled node storage (see timer_slab.h), and expiry fires the slot
// in place. Steady-state schedule / cancel / fire performs zero heap
// allocations. TimerIds are generation-counted, so a stale id whose slab
// slot was recycled is rejected rather than cancelling a stranger. A re-arm
// moves the node in place, so a timer keeps its TimerId for life.

#ifndef SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_
#define SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace softtimer {

// Identifies one scheduled timer. Default-constructed ids are invalid.
// Packs {shard, generation, slab slot index}; see timer_slab.h.
struct TimerId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

struct TimerPayload;

// Passed to the fired handler: the node's payload, in place (the node is
// freed after the handler returns), the deadline the node was stored under,
// and the timer's id. A handler defers itself with Update(id, deadline),
// which re-queues the node under the same id.
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
  uint64_t user_data = 0;       // caller-owned (facility: the event's cookie)
  uint32_t tag = 0;             // caller-chosen handler class
  TimerHandlerSlot handler;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_TIMER_QUEUE_H_
