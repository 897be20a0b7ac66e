// Lock-free single-producer / single-consumer rings.
//
// SpscRing is a bounded ring: each side owns one counter, so a push is a slot
// move plus one release store, a pop is a slot move plus one release store,
// and the consumer's emptiness probe is a single relaxed load. SpscChannel
// chains SpscRings into an unbounded FIFO: it is the cross-core command
// channel of ShardedSoftTimerRuntime, one per (producer thread, target shard)
// pair, so every channel has one writer and one reader and needs no CAS
// loops. A push that finds its ring full never refuses: it allocates a ring
// of twice the capacity, pushes there and links it from the old one.
//
// Slots hold T by value and are recycled in place; pushing move-assigns into
// the slot and popping move-assigns out, so a T whose move is allocation-free
// (e.g. a command carrying a std::function handler) keeps the channel
// allocation-free in steady state. Capacity is rounded up to a power of two;
// head/tail are monotonically increasing uint64 counters (no wrap handling
// needed within any realistic lifetime), kept on separate cache lines along
// with each side's cached view of the other's counter.
//
// Concurrency-model parameters (see src/core/atomics_traits.h): both types
// are templated on an atomics-traits type so the identical protocol code runs
// against std::atomic in production and against the model checker's
// simulated memory in tests/model_check_test.cc, and on an ordering-policy
// type whose shipped defaults (SpscRingOrdering, SpscChannelOrdering) are
// what production uses. The policy exists so the model-check suite can
// *weaken* one rule at a time and prove the checker catches the resulting
// bug - never override it in production code.

#ifndef SOFTTIMER_SRC_CORE_SPSC_RING_H_
#define SOFTTIMER_SRC_CORE_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/core/atomics_traits.h"

namespace softtimer {

// Fixed rather than std::hardware_destructive_interference_size: that value
// shifts with compiler version/-mtune (gcc warns it may break ABI), and 64
// is right for every target this repo builds on.
inline constexpr size_t kCacheLineBytes = 64;

// The shipped memory orderings of the ring protocol. Each publishing store
// is release and each cross-side load is acquire: the pair makes the slot
// bytes written before a counter bump visible to the side that observes the
// bump. Same-side loads are relaxed (a thread always sees its own stores).
struct SpscRingOrdering {
  // ordering: producer reading its own tail; no synchronization needed.
  static constexpr std::memory_order kOwnTailLoad = std::memory_order_relaxed;
  // ordering: consumer reading its own head; no synchronization needed.
  static constexpr std::memory_order kOwnHeadLoad = std::memory_order_relaxed;
  // ordering: producer's view of head must also acquire the consumer's slot
  // reads, so reusing the slot cannot race the pop that freed it.
  static constexpr std::memory_order kHeadLoad = std::memory_order_acquire;
  // ordering: consumer's view of tail must acquire the producer's slot
  // write, so popping reads fully-constructed contents.
  static constexpr std::memory_order kTailLoad = std::memory_order_acquire;
  // ordering: publishes the slot write to the consumer (pairs w/ kTailLoad).
  static constexpr std::memory_order kTailStore = std::memory_order_release;
  // ordering: publishes the slot recycle to the producer (pairs w/ kHeadLoad).
  static constexpr std::memory_order kHeadStore = std::memory_order_release;
};

template <typename T, typename Traits = StdAtomicsTraits,
          typename Ordering = SpscRingOrdering>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) {
      cap <<= 1;
    }
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  size_t capacity() const { return mask_ + 1; }

  // Producer side. Returns false (and leaves `v` intact) when full.
  bool TryPush(T&& v) {
    uint64_t tail = tail_.pos.load(Ordering::kOwnTailLoad);
    if (tail - tail_.cached_other >= capacity()) {
      tail_.cached_other = head_.pos.load(Ordering::kHeadLoad);
      if (tail - tail_.cached_other >= capacity()) {
        return false;
      }
    }
    Traits::OnNonAtomicWrite(&slots_[tail & mask_]);
    slots_[tail & mask_] = std::move(v);
    tail_.pos.store(tail + 1, Ordering::kTailStore);
    return true;
  }

  // Consumer side. Returns false when empty.
  bool TryPop(T& out) {
    uint64_t head = head_.pos.load(Ordering::kOwnHeadLoad);
    if (head == head_.cached_other) {
      head_.cached_other = tail_.pos.load(Ordering::kTailLoad);
      if (head == head_.cached_other) {
        return false;
      }
    }
    Traits::OnNonAtomicRead(&slots_[head & mask_]);
    out = std::move(slots_[head & mask_]);
    Traits::OnNonAtomicWrite(&slots_[head & mask_]);
    slots_[head & mask_] = T{};  // drop resources the moved-from slot retains
    head_.pos.store(head + 1, Ordering::kHeadStore);
    return true;
  }

  // Consumer-side cheap probe; may transiently say "empty" for an element
  // published concurrently (the pending-flag protocol above this ring - a
  // seq_cst flag store on the producer side paired with a seq_cst fence
  // after the consumer's flag clear - closes that window).
  bool EmptyRelaxed() const {
    // ordering: intentionally relaxed on both counters - staleness here only
    // delays a drain until the pending-flag protocol re-raises it.
    return head_.pos.load(std::memory_order_relaxed) ==
           tail_.pos.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineBytes) Side {
    typename Traits::template Atomic<uint64_t> pos{0};
    // This side's cached copy of the opposite counter (avoids an acquire
    // load per operation in the common non-full/non-empty case).
    uint64_t cached_other = 0;
  };

  std::vector<T> slots_;
  size_t mask_ = 0;
  Side head_;  // consumer cursor
  Side tail_;  // producer cursor
};

// The shipped rules of SpscChannel's ring switch. The producer links a new
// ring only after its last push into the old one, and the consumer follows
// the link only after the old ring reads empty again.
struct SpscChannelOrdering {
  // ordering: publishes the new ring's construction (slot array, mask,
  // cursors: plain writes) and every push before it; pairs with kLinkLoad.
  static constexpr std::memory_order kLinkStore = std::memory_order_release;
  // ordering: the consumer reads the new ring's plain fields only after
  // this load; pairs with kLinkStore.
  static constexpr std::memory_order kLinkLoad = std::memory_order_acquire;
  // The consumer's empty reading of the old ring may predate the producer's
  // last pushes there. Once the link is seen, those pushes are visible, so
  // one more pop of the old ring finds them; switching without it lets a
  // later command (a cancel) overtake an earlier one (its schedule).
  static constexpr bool kRedrainBeforeSwitch = true;
};

template <typename T, typename Traits = StdAtomicsTraits,
          typename Ordering = SpscChannelOrdering>
class SpscChannel {
 public:
  explicit SpscChannel(size_t capacity)
      : head_{new Link(capacity)}, tail_{head_.link} {}

  // Undrained elements die with their rings. Both sides must be quiescent.
  ~SpscChannel() {
    Link* link = head_.link;
    while (link != nullptr) {
      Link* next = link->Next(std::memory_order_relaxed);  // ordering: quiesced
      delete link;
      link = next;
    }
  }

  SpscChannel(const SpscChannel&) = delete;
  SpscChannel& operator=(const SpscChannel&) = delete;

  // Producer side. Always takes `v`. Returns true when the push found the
  // ring full and grew the channel (one allocation), false otherwise.
  bool Push(T&& v) {
    if (tail_.link->ring.TryPush(std::move(v))) {
      return false;
    }
    Grow(std::move(v));
    return true;
  }

  // Consumer side. Returns false when empty.
  bool TryPop(T& out) {
    if (head_.link->ring.TryPop(out)) {
      return true;
    }
    Link* next = head_.link->Next(Ordering::kLinkLoad);
    return next != nullptr && PopAcrossLink(next, out);
  }

  // Consumer side: the capacity of the ring being drained.
  size_t capacity() const { return head_.link->ring.capacity(); }

  // Consumer-side cheap probe, with SpscRing::EmptyRelaxed's caveat: it may
  // miss a push or a link published concurrently.
  bool EmptyRelaxed() const {
    // ordering: relaxed - staleness only delays a drain until the
    // pending-flag protocol re-raises it, as for the ring's own counters.
    return head_.link->ring.EmptyRelaxed() &&
           head_.link->Next(std::memory_order_relaxed) == nullptr;
  }

 private:
  struct Link {
    explicit Link(size_t capacity) : ring(capacity) {}
    Link* Next(std::memory_order order) const {
      return reinterpret_cast<Link*>(next.load(order));
    }
    SpscRing<T, Traits> ring;
    // The ring that follows this one; 0 until the producer outgrows it.
    typename Traits::template Atomic<uintptr_t> next{0};
  };

  // SOFTTIMER_COLD: growth - entered only when a push finds the ring full,
  // i.e. when the consumer has fallen a whole ring behind (a host stall).
  // Each growth doubles the capacity, so a channel grows O(log n) times.
  void Grow(T&& v) {
    auto link = std::make_unique<Link>(tail_.link->ring.capacity() * 2);
    link->ring.TryPush(std::move(v));  // an empty ring always has room
    tail_.link->next.store(reinterpret_cast<uintptr_t>(link.get()),
                           Ordering::kLinkStore);
    tail_.link = link.release();
  }

  // SOFTTIMER_COLD: ring switch - entered once per growth, when the
  // consumer reaches the link; frees the outgrown ring.
  bool PopAcrossLink(Link* next, T& out) {
    if (Ordering::kRedrainBeforeSwitch && head_.link->ring.TryPop(out)) {
      return true;
    }
    delete head_.link;
    head_.link = next;
    // The producer pushed into the new ring before linking it.
    return head_.link->ring.TryPop(out);
  }

  struct alignas(kCacheLineBytes) Side {
    Link* link = nullptr;
  };

  Side head_;  // consumer's ring
  Side tail_;  // producer's ring
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_SPSC_RING_H_
