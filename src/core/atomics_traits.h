// Atomics-traits shim: the single seam between the lock-free runtime code
// and the memory model it executes under.
//
// Every templated concurrency primitive in this repository (SpscRing,
// SpscChannel, RemotePendingFlag, SleeperGate) names its atomics through a
// Traits parameter instead of using std::atomic directly:
//
//   typename Traits::template Atomic<uint64_t> pos_;
//   Traits::ThreadFence(std::memory_order_seq_cst);
//   Traits::OnNonAtomicRead(&slot);   // instrumentation hook, no-op here
//
// Production code instantiates the default, StdAtomicsTraits, which maps
// 1:1 onto std::atomic / std::atomic_thread_fence with zero-cost no-op
// instrumentation hooks - the compiled hot path is bit-identical to writing
// std::atomic by hand. The model checker (src/check/model_atomic.h) provides
// ModelCheckerTraits, which routes the *same* primitive code through
// simulated store buffers, an exhaustive-interleaving scheduler, and
// vector-clock race detection for the non-atomic hooks.
//
// Rules enforced by tools/lint_hotpath.py:
//  * Files that declare a Traits template parameter must not name
//    std::atomic directly (outside this header) - otherwise the checker
//    silently stops seeing part of the protocol.
//  * Non-seq_cst memory orderings everywhere in the concurrency files carry
//    a `// ordering:` rationale comment.

#ifndef SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_
#define SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_

#include <atomic>

namespace softtimer {

struct StdAtomicsTraits {
  template <typename T>
  using Atomic = std::atomic<T>;

  static void ThreadFence(std::memory_order order) {
    std::atomic_thread_fence(order);
  }

  // Instrumentation hooks around non-atomic accesses to data published
  // through the atomics above (e.g. ring slots). The model checker turns
  // these into scheduling points with happens-before race detection; in
  // production they compile to nothing.
  static void OnNonAtomicRead(const volatile void* /*addr*/) {}
  static void OnNonAtomicWrite(const volatile void* /*addr*/) {}

  // Scheduling hint for spin/retry loops in model-checked drivers; a no-op
  // on real hardware (the OS scheduler is preemptive, the model one is not).
  static void Yield() {}
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_ATOMICS_TRAITS_H_
