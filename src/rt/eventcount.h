// SleeperGate: the eventcount-style sleep/wake protocol used by
// ShardedRtHost to keep a cross-core publish from waiting out a sleeping
// shard's backup-bounded condvar wait, without poking a sleeper that would
// wake in time anyway.
//
// The gate owns only one atomic word and its fences; the mutex /
// condition_variable half of the eventcount stays in the host (the model
// checker verifies the word's protocol, which is where the lost-wakeup race
// lives - the condvar part is ordinary blocking code under a lock). The word
// is the sleeper's planned wake tick P, 0 while it is awake.
//
// Sleeper (shard loop thread):            Waker (producer thread):
//   lock(m)                                 publish command due at D
//   gate.PrepareSleep(P)  // planned=P;     p = gate.PlannedWake()  // fence;
//                         // fence                                  // load
//   recheck pending/stop  // under the      if (p != 0 &&
//   cv.wait(... until P)  // word               WakeMatters(p, D, now, K)) {
//   gate.FinishSleep()    // planned=0        lock(m); cv.notify_one()
//                                           }
//
// This is the same Dekker shape as RemotePendingFlag with the roles
// swapped: each side stores its word, fences, then reads the other side's
// state. If the sleeper's recheck misses the publish, the waker's fence
// orders its load after the sleeper's store, so it reads the P the sleeper
// blocks on. A command due before P then gets its notify (the waker blocks
// on the mutex until the wait releases it). A command due at or after P
// needs none: notified, the sleeper would drain it and sleep to P again,
// and unnotified, its wake at P drains it before it falls due. The waker
// still notifies when P is less than K ticks away (the host's notify
// horizon): a notify lands the sleeper early enough to spin to P, or ends
// an oversleep past it, and that keeps the sleeper's own deadline on time.
// A sleeper may publish any tick at or before the one it blocks on: an
// earlier P only adds notifies. kUnplannedWake, the earliest, gets every
// poke delivered, as a 0/1 sleeping flag would.
//
// Dropping either fence re-opens the classic lost wakeup: both sides'
// stores sit in store buffers, the recheck reads pending==0, the waker
// reads planned==0, and the shard sleeps until P with work due before it.
// So does storing P only after the recheck: a waker that reads an earlier
// provisional tick skips a command due before the P the sleeper then
// blocks on. tests/model_check_test.cc explores the shipped orderings (no
// command due before P is left unnotified in any interleaving) and the
// weakened ones (WeakSleepFenceOrdering, WeakWakeFenceOrdering and a
// sleeper that stores P after its recheck reproduce the miss).
//
// Traits/Ordering parameters: see src/core/atomics_traits.h. Production uses
// the defaults; never override Ordering outside the model-check suite.

#ifndef SOFTTIMER_SRC_RT_EVENTCOUNT_H_
#define SOFTTIMER_SRC_RT_EVENTCOUNT_H_

#include <atomic>
#include <cstdint>

#include "src/core/atomics_traits.h"

namespace softtimer {

// Shipped orderings for the sleep/wake gate.
struct SleeperGateOrdering {
  // ordering: the planned-tick store needs no ordering of its own; the
  // fence right after it is what orders it against the recheck's loads.
  static constexpr std::memory_order kSleepStore = std::memory_order_relaxed;
  // Store-load fence between announcing sleep and rechecking the wake
  // condition; pairs with kWakeFence on the producer side.
  static constexpr std::memory_order kSleepFence = std::memory_order_seq_cst;
  // Store-load fence between the producer's publish and its planned-tick
  // read; pairs with kSleepFence (see the lost-wakeup scenario above).
  static constexpr std::memory_order kWakeFence = std::memory_order_seq_cst;
  // ordering: the fence before this load does the ordering; the load itself
  // can be relaxed.
  static constexpr std::memory_order kWakeLoad = std::memory_order_relaxed;
  // ordering: clearing the word after a wait races nothing that matters - a
  // spurious notify to an awake loop is harmless.
  static constexpr std::memory_order kWakeClearStore =
      std::memory_order_relaxed;
};

template <typename Traits = StdAtomicsTraits,
          typename Ordering = SleeperGateOrdering>
class SleeperGate {
 public:
  // The earliest non-zero tick. Published in place of a plan, it reads as a
  // wake already past, so WakeMatters is true for every poke whose now +
  // horizon exceeds 1 tick, as it does long before any wake can be late.
  static constexpr uint64_t kUnplannedWake = 1;

  // Sleeper side: announce a sleep that ends at `wake_tick` (non-zero) at
  // the latest. Must be followed by a recheck of the wake condition before
  // actually blocking (the fence makes a publish that the recheck misses
  // read this tick instead).
  void PrepareSleep(uint64_t wake_tick) {
    planned_.store(wake_tick, Ordering::kSleepStore);
    Traits::ThreadFence(Ordering::kSleepFence);
  }

  // Sleeper side: done sleeping (or decided not to block after all).
  void FinishSleep() { planned_.store(0, Ordering::kWakeClearStore); }

  // Waker side, after publishing work: the tick the sleeper plans to wake
  // at while it may be inside (or committed to entering) its wait, 0 when
  // it is awake. 0 means the sleeper's recheck is guaranteed to observe the
  // published work; otherwise WakeMatters decides whether to notify.
  uint64_t PlannedWake() {
    Traits::ThreadFence(Ordering::kWakeFence);
    return planned_.load(Ordering::kWakeLoad);
  }

  // Waker side: whether work due at `due_tick`, published at `now_tick`,
  // must notify a sleeper whose PlannedWake() read `planned` (non-zero).
  // Yes when the work falls due before the planned wake, and when that
  // wake is less than `horizon_ticks` away (see the header comment).
  static constexpr bool WakeMatters(uint64_t planned, uint64_t due_tick,
                                    uint64_t now_tick,
                                    uint64_t horizon_ticks) {
    return due_tick < planned || planned < now_tick + horizon_ticks;
  }

  // Introspection (tests/stats): the planned wake tick, 0 while awake.
  uint64_t planned_wake_relaxed() const {
    // ordering: diagnostic read only; never used for synchronization.
    return planned_.load(std::memory_order_relaxed);
  }

 private:
  typename Traits::template Atomic<uint64_t> planned_{0};
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_EVENTCOUNT_H_
