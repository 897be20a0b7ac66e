// ModelAtomic / ModelCheckerTraits: the model checker's drop-in atomics.
//
// ModelCheckerTraits satisfies the atomics-traits contract documented in
// src/core/atomics_traits.h, so any primitive templated on a Traits
// parameter (SpscRing, RemotePendingFlag, SleeperGate) can be instantiated
// against the checker with zero changes to the protocol code:
//
//   SpscRing<int, ModelCheckerTraits> ring(4);  // inside a model test
//
// Each operation routes into the active ModelRuntime, which simulates a
// per-thread store buffer and tracks happens-before clocks; outside an
// execution (or on the controller during setup/finally closures) the
// operations degrade to direct single-threaded accesses, so fixtures can
// freely construct and inspect state.
//
// ModelAtomic models integral flags and counters only - that is all the
// shipped protocols use, and a 64-bit committed-value slot keeps the
// runtime's store-buffer entries trivially copyable.

#ifndef SOFTTIMER_SRC_CHECK_MODEL_ATOMIC_H_
#define SOFTTIMER_SRC_CHECK_MODEL_ATOMIC_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "src/check/model_runtime.h"

namespace softtimer::check {

template <typename T>
class ModelAtomic {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                "ModelAtomic models integral flags/counters (use uint32_t "
                "instead of bool)");
  static_assert(sizeof(T) <= sizeof(uint64_t));

 public:
  ModelAtomic() noexcept = default;
  // Implicit, like std::atomic, so `Atomic<uint64_t> pos{0}` member
  // initializers compile against either traits type.
  ModelAtomic(T v) noexcept { meta_.committed = Encode(v); }  // NOLINT
  // An atomic may die inside an execution (a ring freed by the thread that
  // drained it): stores still buffered for it must not commit afterwards.
  ~ModelAtomic() {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->ForgetLocation(&meta_);
    }
  }
  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  T load(std::memory_order order = std::memory_order_seq_cst) const {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      return Decode(rt->AtomicLoad(&meta_, order));
    }
    return Decode(meta_.committed);
  }

  void store(T v, std::memory_order order = std::memory_order_seq_cst) {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->AtomicStore(&meta_, Encode(v), order);
      return;
    }
    meta_.committed = Encode(v);
  }

  T fetch_add(T add, std::memory_order order = std::memory_order_seq_cst) {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      return Decode(rt->AtomicFetchAdd(&meta_, Encode(add), order));
    }
    uint64_t old = meta_.committed;
    meta_.committed = old + Encode(add);
    return Decode(old);
  }

  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order order = std::memory_order_seq_cst) {
    uint64_t exp = Encode(expected);
    bool ok;
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      ok = rt->AtomicCas(&meta_, exp, Encode(desired), order);
    } else if (meta_.committed == exp) {
      meta_.committed = Encode(desired);
      ok = true;
    } else {
      exp = meta_.committed;
      ok = false;
    }
    if (!ok) {
      expected = Decode(exp);
    }
    return ok;
  }

 private:
  static uint64_t Encode(T v) {
    return static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(v));
  }
  static T Decode(uint64_t v) {
    return static_cast<T>(
        static_cast<std::make_unsigned_t<T>>(v & Mask()));
  }
  static constexpr uint64_t Mask() {
    return sizeof(T) == sizeof(uint64_t)
               ? ~uint64_t{0}
               : (uint64_t{1} << (sizeof(T) * 8)) - 1;
  }

  ModelAtomicMeta meta_;
};

struct ModelCheckerTraits {
  template <typename T>
  using Atomic = ModelAtomic<T>;

  static void ThreadFence(std::memory_order order) {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->Fence(order);
      return;
    }
    std::atomic_thread_fence(order);
  }

  static void OnNonAtomicRead(const volatile void* addr) {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->NonAtomicAccess(addr, /*is_write=*/false);
    }
  }

  static void OnNonAtomicWrite(const volatile void* addr) {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->NonAtomicAccess(addr, /*is_write=*/true);
    }
  }

  static void Yield() {
    if (ModelRuntime* rt = ModelRuntime::Active()) {
      rt->Yield();
    }
  }
};

}  // namespace softtimer::check

#endif  // SOFTTIMER_SRC_CHECK_MODEL_ATOMIC_H_
