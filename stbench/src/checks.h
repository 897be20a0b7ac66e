// Correctness checks every workload runs after its drain. Each returns an
// empty string when the check passes, or a one-line description of the
// violation; a run with any violation prints "correct": false and exits
// non-zero.

#ifndef STBENCH_SRC_CHECKS_H_
#define STBENCH_SRC_CHECKS_H_

#include <cstdint>
#include <string>

#include "src/stats/latency_histogram.h"
#include "src/tcp/rto_engine.h"
#include "stbench/src/delay_line.h"

namespace stbench {

// RtoEngine after drain: scheduled == cancelled + fired, no fire against a
// closed generation, no connection given up.
std::string CheckRtoEngine(const softtimer::RtoEngine::Stats& s);

// Cross-core timers: every scheduled timer (re-arms included) resolved
// exactly once, by firing or by a cancel that hit it.
std::string CheckTimerConservation(uint64_t scheduled, uint64_t fired,
                                   uint64_t cancelled);

// Delay line after drain: nothing pending, nothing lost, nothing read
// before its due tick, nothing refused.
std::string CheckDelayLine(const DelayLineStats& s);

// No dispatch at or before its deadline (lateness 0 is an early fire).
std::string CheckNoEarlyFires(const softtimer::LatencyHistogram& lateness);

// One request: all its bytes acknowledged.
std::string CheckRequestBytes(uint64_t request, uint64_t expected_bytes,
                              uint64_t delivered_bytes);

}  // namespace stbench

#endif  // STBENCH_SRC_CHECKS_H_
