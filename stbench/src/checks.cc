#include "stbench/src/checks.h"

namespace stbench {

namespace {
std::string U(uint64_t v) { return std::to_string(v); }
}  // namespace

std::string CheckRtoEngine(const softtimer::RtoEngine::Stats& s) {
  if (s.timers_scheduled != s.timers_cancelled + s.timers_fired) {
    return "rto conservation: scheduled " + U(s.timers_scheduled) +
           " != cancelled " + U(s.timers_cancelled) + " + fired " +
           U(s.timers_fired);
  }
  if (s.stale_fires != 0) {
    return "rto stale_fires " + U(s.stale_fires) + " != 0";
  }
  if (s.give_ups != 0) {
    return "rto give_ups " + U(s.give_ups) + " != 0";
  }
  return "";
}

std::string CheckTimerConservation(uint64_t scheduled, uint64_t fired,
                                   uint64_t cancelled) {
  if (scheduled != fired + cancelled) {
    return "timer conservation: scheduled " + U(scheduled) + " != fired " +
           U(fired) + " + cancelled " + U(cancelled);
  }
  return "";
}

std::string CheckDelayLine(const DelayLineStats& s) {
  if (s.pushed != s.delivered + s.pending) {
    return "delay-line conservation: pushed " + U(s.pushed) +
           " != delivered " + U(s.delivered) + " + pending " + U(s.pending);
  }
  if (s.pending != 0) {
    return "delay line: " + U(s.pending) + " entries undelivered at drain";
  }
  if (s.early != 0) {
    return "delay line: " + U(s.early) + " entries read before their due tick";
  }
  if (s.overflows != 0) {
    return "delay line: " + U(s.overflows) + " pushes refused (full)";
  }
  return "";
}

std::string CheckNoEarlyFires(const softtimer::LatencyHistogram& lateness) {
  uint64_t early = 0;
  lateness.ForEachNonZero([&](uint64_t lower, uint64_t, uint64_t count) {
    if (lower == 0) {
      early += count;
    }
  });
  if (early != 0) {
    return "early fires: " + U(early) + " dispatches at or before T";
  }
  return "";
}

std::string CheckRequestBytes(uint64_t request, uint64_t expected_bytes,
                              uint64_t delivered_bytes) {
  if (expected_bytes != delivered_bytes) {
    return "request " + U(request) + ": delivered " + U(delivered_bytes) +
           " of " + U(expected_bytes) + " bytes";
  }
  return "";
}

}  // namespace stbench
