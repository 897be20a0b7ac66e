// CpuRelax(): the spin-wait pause hint (x86 `pause`, ARM `yield`).
//
// Every busy-wait in the tree routes through this one helper: a pure
// load/compare spin saturates the core's speculation resources and starves a
// sibling hyperthread (and on x86 eats the memory-order mis-speculation
// penalty when the awaited line finally changes). The pause hint tells the
// pipeline this is a spin, releasing those resources for the duration of one
// iteration. Used by ShardedRtHost's spin step, which a spinning shard takes
// instead of parking, and by that shard's start-up spin-gap calibration.

#ifndef SOFTTIMER_SRC_CORE_CPU_RELAX_H_
#define SOFTTIMER_SRC_CORE_CPU_RELAX_H_

#include <atomic>

namespace softtimer {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  // No architectural hint: at least force the compiler to re-load spin
  // variables each iteration instead of hoisting them out of the loop.
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_CPU_RELAX_H_
