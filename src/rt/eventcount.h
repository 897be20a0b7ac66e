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
// A sleeper may publish any tick at or after the one it blocks on: a later
// P adds notifies for commands due between the two ticks and loses at most
// a notify-horizon poke, never a needed one. An earlier P is not safe: a
// waker that reads it skips a command due between it and the tick the
// sleeper blocks on. The one exception is kUnplannedWake, which WakeMatters
// always reads as inside the horizon, so every poke is delivered, as a 0/1
// sleeping flag would. So a sleeper may publish a later tick, fence, and
// then Lower() the word to the tick it blocks on with a relaxed store: a
// waker reads one tick or the other, each at or after the blocking one.
//
// Parking beside siblings. A shard whose earliest bound is a deadline its
// siblings share (the queue gate's next-due tick) needs only one of them
// to wake for it. It publishes its own, later plan, fences, reads each
// sibling's word (SiblingPlan), and lowers its wait and its word to the
// shared deadline only when no sibling Covers it. The same fence pairing
// as above means that of two sleepers parking at once, the later one past
// its fence reads the other's published plan, so it never reads both as
// covering; and since a published tick is never earlier than the wait it
// bounds, a sibling whose word covers the deadline really wakes by it.
// Publishing the shared deadline first and raising it when covered would
// let both shards read each other's deadline and both withdraw.
//
// Dropping either fence re-opens the classic lost wakeup: both sides'
// stores sit in store buffers, the recheck reads pending==0, the waker
// reads planned==0, and the shard sleeps until P with work due before it.
// So does storing P only after the recheck: a waker that reads an earlier
// provisional tick skips a command due before the P the sleeper then
// blocks on. tests/model_check_test.cc explores the shipped orderings (no
// command due before P is left unnotified in any interleaving, also when
// the sleeper publishes a later tick and lowers it after its recheck) and
// the weakened ones (WeakSleepFenceOrdering, WeakWakeFenceOrdering and a
// sleeper that stores P after its recheck reproduce the miss). It also
// explores two sleepers parking beside one shared deadline: one of them
// always waits for it, and reading the sibling before publishing,
// publishing the deadline and withdrawing from it, or
// WeakSleepFenceOrdering leaves it uncovered.
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

  // Sleeper side, after PrepareSleep and before blocking: the sleep now ends
  // at `wake_tick`, earlier than the published tick. The PrepareSleep fence
  // already ordered the later tick, so this store needs none: a waker reads
  // one tick or the other, each at or after the one the sleeper blocks on.
  void Lower(uint64_t wake_tick) {
    planned_.store(wake_tick, Ordering::kSleepStore);
  }

  // Sleeper side: done sleeping (or decided not to block after all).
  void FinishSleep() { planned_.store(0, Ordering::kWakeClearStore); }

  // A sibling sleeper's side, after its own PrepareSleep: the tick this
  // gate's sleeper plans to wake at, 0 while it is awake or spinning. The
  // caller's PrepareSleep fence orders this load after the caller's own
  // publish, as PlannedWake's fence does for a waker.
  uint64_t SiblingPlan() const { return planned_.load(Ordering::kWakeLoad); }

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

  // Parking sleeper side: whether a sibling whose SiblingPlan() read
  // `planned` wakes for a deadline at `due_tick` it shares with the parker,
  // so the parker may sleep past it. Yes when the sibling is awake (0: it
  // checks the deadline on its next iteration) or plans a real wake at or
  // before the deadline; never for kUnplannedWake, whose real wake it does
  // not say.
  static constexpr bool Covers(uint64_t planned, uint64_t due_tick) {
    return planned == 0 || (planned != kUnplannedWake && planned <= due_tick);
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
