// The benchmark's own tests: each correctness check must fire on a
// deliberately broken input and stay quiet on a good one, and every
// workload must pass its checks in a short smoke run.
//
//   stbench_selftest            # exits non-zero on the first failed case

#include <cstdio>
#include <string>

#include "src/core/clock_source.h"
#include "src/core/sharded_soft_timer_runtime.h"
#include "src/tcp/rto_engine.h"
#include "stbench/src/checks.h"
#include "stbench/src/delay_line.h"
#include "stbench/src/workloads.h"

namespace stbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failures;
  }
}

class ManualClock : public softtimer::ClockSource {
 public:
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return kMeasureHz; }
  void Advance(uint64_t ticks) { now_ += ticks; }

 private:
  uint64_t now_ = 0;
};

void DelayLineLedger() {
  DelayLine<int> good(8);
  good.Push(10, 1);
  good.Push(20, 2);
  good.Drain(20, [](int, uint64_t) {});
  Expect(CheckDelayLine(good.stats()).empty(),
         "delay line: on-time delivery passes");

  // A deliberately dropped ACK breaks pushed == delivered + pending.
  DelayLine<int> dropped(8);
  dropped.Push(10, 1);
  dropped.Push(20, 2);
  dropped.DiscardHeadForTest();
  dropped.Drain(20, [](int, uint64_t) {});
  Expect(!CheckDelayLine(dropped.stats()).empty(),
         "delay line: a dropped ACK fails conservation");

  // Reading one tick early delivers an entry before it is due: a miss.
  DelayLine<int> early(8);
  early.set_read_ahead_for_test(1);
  early.Push(100, 1);
  size_t n = early.Drain(99, [](int, uint64_t) {});
  Expect(n == 1 && early.stats().early == 1,
         "delay line: a read one tick early counts a miss");
  Expect(!CheckDelayLine(early.stats()).empty(),
         "delay line: an early read fails the check");

  DelayLine<int> undrained(8);
  undrained.Push(100, 1);
  Expect(!CheckDelayLine(undrained.stats()).empty(),
         "delay line: an entry left at drain fails the check");
}

void RtoConservation() {
  ManualClock clock;
  softtimer::ShardedSoftTimerRuntime::Config rc;
  rc.facility.interrupt_clock_hz = 1'000;
  softtimer::ShardedSoftTimerRuntime rt(&clock, rc);
  softtimer::RtoEngine rto(&rt, nullptr, DefaultRtoConfig(0));
  uint64_t conn = rto.OpenConnection(nullptr);
  rto.OnSegmentSent(conn, 1);
  rto.OnSegmentSent(conn, 2);
  clock.Advance(kNsPerMs);
  rto.OnCumulativeAck(conn, 1);  // partial ACK: segment 2's ACK is dropped
  Expect(!CheckRtoEngine(rto.stats()).empty(),
         "rto: a dropped ACK fails scheduled == cancelled + fired");
  rto.OnCumulativeAck(conn, 2);
  Expect(CheckRtoEngine(rto.stats()).empty(),
         "rto: every ACK delivered passes");
  Expect(rto.stats().timers_rescheduled == 1,
         "rto: the partial ACK re-armed its survivor");
}

void TimerAndRequestChecks() {
  Expect(CheckTimerConservation(10, 6, 4).empty(),
         "timers: scheduled == fired + cancelled passes");
  Expect(!CheckTimerConservation(10, 6, 3).empty(),
         "timers: an unresolved timer fails conservation");
  Expect(CheckRequestBytes(1, 5000, 5000).empty(),
         "request: all bytes delivered passes");
  Expect(!CheckRequestBytes(1, 5000, 3540).empty(),
         "request: missing bytes fail");
}

void LatenessChecks() {
  softtimer::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v * 100);
  }
  Expect(CheckNoEarlyFires(h).empty(), "lateness: no early fire passes");
  Expect(BoundMisses(h, 1'000'000) == 0, "lateness: all inside the bound");
  double p50 = InterpPercentile(h, 50.0);
  Expect(p50 > 45'000 && p50 < 55'000, "lateness: interpolated p50 ~50000");
  h.Record(0);
  Expect(!CheckNoEarlyFires(h).empty(), "lateness: an early fire fails");
  h.Record(2'000'000);
  Expect(BoundMisses(h, 1'000'000) == 2,
         "lateness: early and past-X dispatches both miss the bound");
}

void SmokeRuns() {
  for (const char* workload : {"web_mixed", "conn_1m", "timer_fanout"}) {
    Options o;
    o.workload = workload;
    o.seed = 7;
    o.seconds = 0.6;
    o.smoke = true;
    o.trace = true;
    Report r = workload == std::string("web_mixed") ? RunWebMixed(o)
               : workload == std::string("conn_1m") ? RunConn1m(o)
                                                     : RunTimerFanout(o);
    for (const std::string& f : r.failures) {
      std::printf("     %s: %s\n", workload, f.c_str());
    }
    Expect(r.correct() && r.failed == 0 && r.attempted > 0,
           (std::string("smoke: ") + workload + " passes its checks").c_str());
  }
}

}  // namespace
}  // namespace stbench

int main() {
  stbench::DelayLineLedger();
  stbench::RtoConservation();
  stbench::TimerAndRequestChecks();
  stbench::LatenessChecks();
  stbench::SmokeRuns();
  std::printf("%d failure(s)\n", stbench::g_failures);
  return stbench::g_failures == 0 ? 0 : 1;
}
