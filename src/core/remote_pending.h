// RemotePendingFlag: the publish/drain flag protocol that sits above the
// per-producer SPSC command rings in ShardedSoftTimerRuntime.
//
// One flag per shard. Producers push a command into their ring and then
// Publish(); the shard owner polls AnyPendingRelaxed() in its trigger-state
// check and, when it reads non-zero, runs DrainChannels below: BeginDrain(),
// a sweep of every registered producer's channel, and Reraise() if a
// bounded sweep left commands behind.
//
// The protocol is a store-buffering (Dekker) shape, and its orderings are
// exactly the PR 3 review fix:
//
//   producer:  ring.TryPush(cmd)        owner:  flag.store(0)
//              flag.store(1, seq_cst)           fence(seq_cst)
//                                               sweep rings
//
// Without the seq_cst pairing, the owner's flag clear can sit in its store
// buffer while its ring reads run early: a concurrent push+publish lands in
// between, the sweep misses the command, and the owner's buffered 0 then
// overwrites the producer's 1 - the command is stranded until an unrelated
// later publish. With it, either the sweep observes the push (drains now) or
// the producer's store is ordered after the clear (flag stays 1; the next
// check drains). tests/model_check_test.cc proves both directions under the
// model checker: the shipped orderings pass every explored interleaving, and
// WeakDrainFenceOrdering (the fence demoted to release) reproduces the
// stranded-command race. The publish side's seq_cst strength is required by
// the C++ memory model but is not separable under the checker's TSO lens
// (store-store order is preserved there); see DESIGN.md section 11.
//
// ShardedSoftTimerRuntime::DrainRemote and the model checker's drain cases
// run the same DrainChannels, so a reordered step fails the model check.
//
// Traits/Ordering parameters: see src/core/atomics_traits.h. Production uses
// the defaults; never override Ordering outside the model-check suite.

#ifndef SOFTTIMER_SRC_CORE_REMOTE_PENDING_H_
#define SOFTTIMER_SRC_CORE_REMOTE_PENDING_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "src/core/atomics_traits.h"
#include "src/core/spsc_ring.h"

namespace softtimer {

// Shipped orderings for the publish/drain protocol (the PR 3 review fix).
struct RemotePendingOrdering {
  // seq_cst, not release: pairs with kDrainFence so a publish racing a drain
  // sweep either has its command popped or leaves the flag raised.
  static constexpr std::memory_order kPublishStore = std::memory_order_seq_cst;
  // ordering: the clear itself needs no ordering; the fence right after it
  // provides the store-load ordering the protocol depends on.
  static constexpr std::memory_order kClearStore = std::memory_order_relaxed;
  // Store-load fence between the flag clear and the ring sweep; pairs with
  // kPublishStore (see the header comment for the stranded-command scenario).
  static constexpr std::memory_order kDrainFence = std::memory_order_seq_cst;
  // ordering: relaxed poll; a stale 0 only delays the drain until the
  // producer's seq_cst publish becomes visible, never loses it.
  static constexpr std::memory_order kPollLoad = std::memory_order_relaxed;
  // ordering: re-raise runs on the owner thread that also drains; it only
  // needs to be visible to the owner's own next poll.
  static constexpr std::memory_order kReraiseStore = std::memory_order_relaxed;
};

template <typename Traits = StdAtomicsTraits,
          typename Ordering = RemotePendingOrdering>
class RemotePendingFlag {
 public:
  // Producer side, after a successful ring push: raise the flag so the
  // owner's next trigger-state check sweeps the rings.
  void Publish() { flag_.store(1, Ordering::kPublishStore); }

  // Owner-side cheap poll (the only cost the sharded runtime adds to a
  // shard's nothing-due trigger check).
  bool AnyPendingRelaxed() const {
    return flag_.load(Ordering::kPollLoad) != 0;
  }

  // Owner side, immediately before a ring sweep: clear the flag, then fence
  // so the sweep's ring reads cannot run ahead of the clear (a command
  // published mid-sweep either gets popped or re-raises the flag for the
  // next check - never both missed).
  void BeginDrain() {
    flag_.store(0, Ordering::kClearStore);
    Traits::ThreadFence(Ordering::kDrainFence);
  }

  // Owner side, after a bounded sweep that left commands queued: keep the
  // flag raised so the next check continues the drain.
  void Reraise() { flag_.store(1, Ordering::kReraiseStore); }

 private:
  typename Traits::template Atomic<uint32_t> flag_{0};
};

// The owner's drain of one shard: clear the flag and fence, read how many
// producers are registered, sweep each one's channel, and re-raise the flag
// if a sweep left commands behind. `registered` counts the leading entries
// of `channels` that exist; `apply` takes each popped command. Returns the
// commands applied.
template <typename T, typename Traits, typename Ordering, size_t N,
          typename Apply>
size_t DrainChannels(
    RemotePendingFlag<Traits, Ordering>& pending,
    const typename Traits::template Atomic<size_t>& registered,
    std::array<std::unique_ptr<SpscChannel<T, Traits>>, N>& channels,
    Apply&& apply) {
  pending.BeginDrain();
  // Read after the fence, like the rings: a producer registers before its
  // first publish, so a count read here covers every producer whose publish
  // the clear above may have overwritten.
  // ordering: acquire pairs with the release store of the count (see
  // RegisterProducer), so every channel DrainChannels sweeps is fully built.
  size_t producers = registered.load(std::memory_order_acquire);
  size_t applied = 0;
  bool leftover = false;
  T cmd;
  for (size_t p = 0; p < producers; ++p) {
    Traits::OnNonAtomicRead(&channels[p]);
    SpscChannel<T, Traits>& channel = *channels[p];
    // Bounded sweep: at most one ring-full of commands per channel, so a
    // producer pushing at full tilt cannot pin the owner here and starve
    // the shard's own dispatches. The rest waits for the next check.
    size_t budget = channel.capacity();
    while (budget-- > 0 && channel.TryPop(cmd)) {
      apply(std::move(cmd));
      ++applied;
    }
    if (!channel.EmptyRelaxed()) {
      leftover = true;
    }
  }
  if (leftover) {
    pending.Reraise();
  }
  return applied;
}

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_REMOTE_PENDING_H_
