// The one-row parameter of the suites that once ran against every timer
// queue backend (conformance, slab trim, hot-path alloc, pacing-wheel alloc,
// facility stress). There is one queue now, HeapTimerQueue, but these suites
// stay parameterized on purpose: gtest_discover_tests prints a parameter's
// bytes into each ctest name ("... # GetParam() = 4-byte object
// <00-00 00-00>"), so a 4-byte parameter of value 0 keeps every heap row's
// test id exactly as it was when the parameter was the queue's kind.

#ifndef SOFTTIMER_TESTS_QUEUE_ROW_H_
#define SOFTTIMER_TESTS_QUEUE_ROW_H_

#include <cstdint>

namespace softtimer {

enum class QueueRow : int32_t { kHeap = 0 };

}  // namespace softtimer

#endif  // SOFTTIMER_TESTS_QUEUE_ROW_H_
