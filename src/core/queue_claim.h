// QueueClaim / NextDueGate: the M-queues-on-N-cores claim protocol behind
// MultiQueuePoller (src/net/multi_queue_poller.h) and the ShardedRtHost
// queue-work integration.
//
// One QueueClaim per NIC rx queue. A core's trigger loop scans the queue
// set for the most-overdue unclaimed due queue, claims it with a single CAS
// on the claim word, polls it under the queue's own PollGovernor, and
// releases it with the governor's next-poll deadline:
//
//   scanner:  peek claim word (relaxed)          owner:  poll queue
//             peek deadline  (relaxed)                   mutate governor state
//             TryClaim()  // CAS 0->core+1, acq          deadline.store(next)
//             re-read deadline (now exact)               claim.store(0, release)
//             poll ...                                   gate.Lower(next)
//
// The claim word is the queue's lock: its release-store/acquire-CAS pairing
// is what publishes the owner's governor and drain-cursor mutations (all
// plain non-atomic state) to the next claimant. Everything else in the
// protocol is deliberately tolerant of staleness:
//
//  * The deadline word may be read without holding the claim. A stale read
//    is always CONSERVATIVE: while a queue is claimed its deadline word
//    still holds the old (due, i.e. earlier) value, and the owner only ever
//    publishes a later one. So any min computed over peeked deadlines is a
//    lower bound on the true earliest next-due tick.
//
//  * NextDueGate is the set-wide fast gate: one load + compare lets a core
//    skip the O(M) scan when nothing can be due. It only LOWERS eagerly
//    (Lower() on every release) and only ADVANCES through TryAdvance(), a
//    single CAS from the value the scanner observed BEFORE its scan, with a
//    min computed over every queue's peeked deadline - claimed queues
//    included, which is what makes the advance safe (see above; a claimed
//    queue's stale deadline undershoots whatever its owner will publish).
//    A racing Lower() changes the gate value and the advance CAS fails, so
//    the gate never moves past a concurrently published deadline; the
//    invariant `gate <= every queue's next-due tick` holds in every
//    interleaving (model-checked in tests/model_check_test.cc, including
//    the weakened advance rule that breaks it).
//
// No queue is ever double-polled (CAS exclusivity) and no due queue is
// stranded when its owner parks: a released queue's deadline is folded into
// the gate before the owner can sleep, and ShardedRtHost bounds a parking
// shard's sleep by the gate unless a sibling is awake or already plans to
// wake by it, so SOME core wakes by the earliest deadline.
//
// Traits/Ordering parameters: see src/core/atomics_traits.h. Production uses
// the defaults; never override Ordering outside the model-check suite.

#ifndef SOFTTIMER_SRC_CORE_QUEUE_CLAIM_H_
#define SOFTTIMER_SRC_CORE_QUEUE_CLAIM_H_

#include <atomic>
#include <cstdint>

#include "src/core/atomics_traits.h"

namespace softtimer {

// Shipped orderings for the claim/release protocol.
struct QueueClaimOrdering {
  // ordering: acquire on the successful claim CAS - pairs with kReleaseStore
  // so the new owner observes the previous owner's governor/drain mutations.
  static constexpr std::memory_order kClaimCas = std::memory_order_acquire;
  // ordering: a failed CAS learns only "someone else owns it"; the scanner
  // retries or moves on without touching queue state.
  static constexpr std::memory_order kClaimFailLoad = std::memory_order_relaxed;
  // ordering: scan peek of the claim word; stale values only mis-rank the
  // candidate scan (the CAS is what decides ownership).
  static constexpr std::memory_order kPeekLoad = std::memory_order_relaxed;
  // ordering: the deadline store needs no ordering of its own - the claim
  // word's release store right after it covers it for claim holders, and
  // claimless peeks are conservative by value (stale = earlier = safe).
  static constexpr std::memory_order kDeadlineStore = std::memory_order_relaxed;
  // ordering: claimless deadline peek; see kDeadlineStore.
  static constexpr std::memory_order kDeadlineLoad = std::memory_order_relaxed;
  // ordering: release on the claim-word clear - pairs with kClaimCas, so the
  // next claim holder observes this owner's queue mutations (governor state,
  // drain cursor, deadline word).
  static constexpr std::memory_order kReleaseStore = std::memory_order_release;
};

// Shipped orderings for the set-wide next-due gate. The gate's correctness
// is value-based (single-variable CAS total order + conservative deadline
// peeks), so every access is relaxed.
struct NextDueGateOrdering {
  // ordering: gate reads feed a heuristic skip / sleep bound; the RMW total
  // order on the gate word itself is what the no-strand argument uses.
  static constexpr std::memory_order kGateLoad = std::memory_order_relaxed;
  // ordering: Lower/TryAdvance are CAS loops on one word; coherence gives
  // them a total order and the advance CAS fails if a Lower intervened.
  static constexpr std::memory_order kGateCas = std::memory_order_relaxed;
};

// Per-queue claim word + published next-poll deadline.
template <typename Traits = StdAtomicsTraits,
          typename Ordering = QueueClaimOrdering>
class QueueClaim {
 public:
  // Scanner side: attempt to take the queue for `core`. True = this core is
  // now the single owner and synchronized with the previous owner's writes.
  // SOFTTIMER_HOT
  bool TryClaim(uint32_t core) {
    uint32_t expected = 0;
    return claim_.compare_exchange_strong(expected, core + 1,
                                          Ordering::kClaimCas);
  }

  // Owner side: publish the queue's next-poll deadline and release the
  // claim. Every plain write the owner made while holding the claim is
  // published by the release store.
  // SOFTTIMER_HOT
  void Release(uint64_t next_due_tick) {
    deadline_.store(next_due_tick, Ordering::kDeadlineStore);
    claim_.store(0, Ordering::kReleaseStore);
  }

  // Scanner peeks (no claim required; see header comment on staleness).
  uint64_t deadline_peek() const {
    return deadline_.load(Ordering::kDeadlineLoad);
  }
  bool claimed_peek() const {
    return claim_.load(Ordering::kPeekLoad) != 0;
  }
  // Owner+1 of the current claim holder, 0 when unclaimed (diagnostics).
  uint32_t owner_peek() const { return claim_.load(Ordering::kPeekLoad); }

  // Owner-side exact read (claim held, so the value is the one this owner
  // last published or inherited through the acquire CAS).
  uint64_t deadline_owned() const {
    return deadline_.load(Ordering::kDeadlineLoad);
  }

 private:
  typename Traits::template Atomic<uint32_t> claim_{0};
  // Absolute tick the queue next wants polling; 0 initially = due at once.
  typename Traits::template Atomic<uint64_t> deadline_{0};
};

// Set-wide earliest-next-due hint: always <= the true earliest next-due
// tick over all queues, so `gate > now` proves nothing is due, while a low
// gate only costs a scan.
template <typename Traits = StdAtomicsTraits,
          typename Ordering = NextDueGateOrdering>
class NextDueGate {
 public:
  // SOFTTIMER_HOT
  uint64_t Load() const { return gate_.load(Ordering::kGateLoad); }

  // Releaser side: fold a freshly published deadline in (monotone min).
  // SOFTTIMER_HOT
  void Lower(uint64_t tick) {
    uint64_t cur = gate_.load(Ordering::kGateLoad);
    while (tick < cur &&
           !gate_.compare_exchange_strong(cur, tick, Ordering::kGateCas)) {
      // cur reloaded by the failed CAS; loop re-tests.
    }
  }

  // Scanner side, after a scan that found nothing due: advance the gate
  // from the value observed before the scan to the min of every deadline
  // peeked during it. A single CAS - if any release Lower()ed the gate in
  // between, the advance fails and the lower value wins.
  // SOFTTIMER_HOT
  bool TryAdvance(uint64_t observed, uint64_t min_seen) {
    if (min_seen <= observed) {
      return false;  // nothing to advance past
    }
    uint64_t expected = observed;
    return gate_.compare_exchange_strong(expected, min_seen,
                                         Ordering::kGateCas);
  }

 private:
  typename Traits::template Atomic<uint64_t> gate_{0};
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_QUEUE_CLAIM_H_
