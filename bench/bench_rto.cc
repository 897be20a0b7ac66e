// Million-connection RTO benchmark: the retransmission-timer workload the
// paper motivates soft timers with (Section 5, Tables 6/7) driven end to
// end through RtoEngine + ShardedSoftTimerRuntime, with FaultInjector
// supplying the loss that makes retransmission timers actually fire.
//
// Phases (each self-checks its acceptance gate; any failure exits 1):
//
//   churn       N concurrent connections, no loss: each round sends one
//               segment per connection, which schedules the connection's
//               RTO timer, and the cumulative ACK cancels it. Gates: >= 95%
//               of timers cancelled before firing (here: all of them), 0
//               allocs/op on the schedule->cancel path, and zero fires
//               across the whole phase.
//   rearm       Full 4-segment windows under partial ACKs: every ACK
//               retires the head and restarts the connection's one timer
//               (RFC 6298 5.3) through RescheduleOnShard, on the heap
//               queue; the fresh send that refills the window finds the
//               timer running and schedules nothing. Gates: every round
//               restarts exactly one timer per connection, 0 allocs/op,
//               zero fires, exact conservation.
//   loss        Same engine under a FaultInjector plan (probabilistic
//               data/ACK loss plus a deterministic burst episode): timers
//               fire, retransmissions back off exponentially, some
//               connections give up. The engine's fire probe records
//               per-dispatch lateness (p50/p99) and proves no timer ever
//               fired before its exact deadline.
//   wheel       PacingWheel under backoff: flows re-rated through doubling
//               intervals until the interval exceeds the inner horizon, so
//               deadlines park in the hierarchical overflow ring. Gates:
//               horizon_clamps == 0, overflow parks/cascades observed, and
//               no flow emitted earlier than its interval (minus dispatch
//               slack).
//   slowstart   Tables 6/7 shape at connection scale: an 8-segment
//               transfer per connection, window 4, driven once
//               self-clocked (slow-start rounds 1,2,4,...) and once
//               rate-based (full window immediately, the soft-timer-paced
//               mode). Every window runs under a real RTO timer. Gate:
//               rate-based completes the transfer in fewer RTTs.
//
// Methodology matches bench_pacing_scale/bench_shard_scaling: virtual time
// is a manual tick counter (1 tick = 1 us nominal), cost is thread CPU time
// (CLOCK_THREAD_CPUTIME_ID), allocations come from the operator-new probe.
// Dispatch lateness is measured against the trigger-state cadence the bench
// itself provides (one sweep per 128 virtual ticks in the loss phase), i.e.
// it is the paper's trigger-arrival delay, not queue error.
//
// Flags:
//   --json=PATH   write the JSON report (schema softtimer-rto-v1)
//   --smoke       20k connections, small wheel (the bench-smoke CI entry)
//   --conns=N     override the connection count
//
// Full run writes BENCH_rto.json for the repo root (see EXPERIMENTS.md).

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include "bench/alloc_probe.h"
#include "src/core/sharded_soft_timer_runtime.h"
#include "src/stats/latency_histogram.h"
#include "src/fault/fault_injector.h"
#include "src/pacing/pacing_wheel.h"
#include "src/sim/random.h"
#include "src/tcp/rto_engine.h"

namespace softtimer {
namespace {

uint64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Manual virtual clock: the bench owns time, the runtime only reads it.
class TickClock : public ClockSource {
 public:
  uint64_t NowTicks() const override { return now_; }
  uint64_t ResolutionHz() const override { return 1'000'000; }
  void Advance(uint64_t ticks) { now_ += ticks; }

 private:
  uint64_t now_ = 0;
};

// ---------------------------------------------------------------------------
// Phase 1: no-loss churn - the 95%-cancelled hot path at full scale.
// ---------------------------------------------------------------------------

struct ChurnResult {
  size_t conns = 0;
  int measured_rounds = 0;
  uint64_t schedules = 0;  // per measured round
  uint64_t cancels = 0;    // per measured round
  uint64_t cpu_ns = 0;     // best measured round
  uint64_t allocs = 0;     // worst measured round
  uint64_t total_scheduled = 0;
  uint64_t total_cancelled = 0;
  uint64_t total_fired = 0;
  bool conserved = false;
  double ns_per_op() const {
    uint64_t ops = schedules + cancels;
    return ops == 0 ? 0.0
                    : static_cast<double>(cpu_ns) / static_cast<double>(ops);
  }
  double allocs_per_op() const {
    uint64_t ops = schedules + cancels;
    return ops == 0 ? 0.0
                    : static_cast<double>(allocs) / static_cast<double>(ops);
  }
  double cancelled_ratio() const {
    return total_scheduled == 0 ? 0.0
                                : static_cast<double>(total_cancelled) /
                                      static_cast<double>(total_scheduled);
  }
  double ops_per_sec() const {
    uint64_t ops = schedules + cancels;
    return cpu_ns == 0 ? 0.0
                       : static_cast<double>(ops) * 1e9 /
                             static_cast<double>(cpu_ns);
  }
};

ChurnResult RunChurn(size_t conns) {
  TickClock clock;
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, rc);
  RtoEngine::Config ec;
  ec.rto_initial_ticks = 2'000;  // RTT is 500: ACKs win by 4x
  ec.rto_min_ticks = 1'000;
  ec.rto_max_ticks = 64'000;
  RtoEngine engine(&rt, nullptr, ec);

  std::vector<uint64_t> ids(conns);
  for (size_t i = 0; i < conns; ++i) {
    ids[i] = engine.OpenConnection(nullptr);
  }

  uint64_t seq = 1'000;
  auto round = [&] {
    for (size_t i = 0; i < conns; ++i) {
      engine.OnSegmentSent(ids[i], seq);
    }
    clock.Advance(500);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    for (size_t i = 0; i < conns; ++i) {
      engine.OnCumulativeAck(ids[i], seq);
    }
    seq += 1'000;
  };

  // Warmup round: grows the connection table, the facility slab, and the
  // wheel slot vectors to their high-water marks. Everything after must be
  // allocation-free.
  round();

  constexpr int kReps = 3;
  ChurnResult r;
  r.conns = conns;
  r.measured_rounds = kReps;
  r.schedules = conns;
  r.cancels = conns;
  uint64_t best_cpu = UINT64_MAX;
  uint64_t worst_allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t a0 = AllocProbeAllocCount();
    uint64_t t0 = ThreadCpuNs();
    round();
    uint64_t cpu = ThreadCpuNs() - t0;
    uint64_t allocs = AllocProbeAllocCount() - a0;
    best_cpu = cpu < best_cpu ? cpu : best_cpu;
    worst_allocs = allocs > worst_allocs ? allocs : worst_allocs;
  }
  r.cpu_ns = best_cpu;
  r.allocs = worst_allocs;

  // Sweep far past every scheduled deadline: cancelled timers must stay
  // dead (fired count frozen), and the wheel reclaims their tombstones.
  for (int i = 0; i < 64; ++i) {
    clock.Advance(ec.rto_max_ticks / 16);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
  }
  for (size_t i = 0; i < conns; ++i) {
    engine.CloseConnection(ids[i]);
  }
  const RtoEngine::Stats& st = engine.stats();
  r.total_scheduled = st.timers_scheduled;
  r.total_cancelled = st.timers_cancelled;
  r.total_fired = st.timers_fired;
  r.conserved = st.timers_scheduled == st.timers_cancelled + st.timers_fired &&
                st.stale_fires == 0;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 1b: partial-ACK re-arm - the RFC 6298 5.3 restart at scale.
// ---------------------------------------------------------------------------

struct RearmResult {
  size_t conns = 0;
  const char* queue = "";
  int measured_rounds = 0;
  uint64_t reschedules = 0;  // per measured round
  uint64_t cpu_ns = 0;       // best measured round
  uint64_t allocs = 0;       // worst measured round
  uint64_t total_rescheduled = 0;
  uint64_t total_fired = 0;
  bool conserved = false;
  // The measured round is one partial ACK + one fresh send per connection:
  // the ACK restarts the connection's timer and the send finds it running,
  // so a round is one restart per connection.
  double ns_per_reschedule() const {
    return reschedules == 0 ? 0.0
                            : static_cast<double>(cpu_ns) /
                                  static_cast<double>(reschedules);
  }
  double allocs_per_op() const {
    return reschedules == 0 ? 0.0
                            : static_cast<double>(allocs) /
                                  static_cast<double>(reschedules);
  }
};

RearmResult RunRearm(size_t conns) {
  TickClock clock;
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, rc);
  RtoEngine::Config ec;
  ec.rto_initial_ticks = 8'000;  // ACK cadence is 500: restarts always win
  ec.rto_min_ticks = 4'000;
  ec.rto_max_ticks = 64'000;
  RtoEngine engine(&rt, nullptr, ec);

  std::vector<uint64_t> ids(conns);
  for (size_t i = 0; i < conns; ++i) {
    ids[i] = engine.OpenConnection(nullptr);
  }
  // Fill every window: 4 segments in flight per connection.
  for (uint32_t s = 1; s <= kRtoWindowSegments; ++s) {
    for (size_t i = 0; i < conns; ++i) {
      engine.OnSegmentSent(ids[i], s * 1'000ull);
    }
  }

  uint64_t round_idx = 0;
  auto round = [&] {
    clock.Advance(500);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    uint64_t ack = (round_idx + 1) * 1'000ull;
    uint64_t next_send = (kRtoWindowSegments + round_idx + 1) * 1'000ull;
    for (size_t i = 0; i < conns; ++i) {
      engine.OnCumulativeAck(ids[i], ack);  // retires head, restarts timer
      engine.OnSegmentSent(ids[i], next_send);
    }
    ++round_idx;
  };

  round();  // warmup: slab / window bookkeeping high-water marks

  constexpr int kReps = 3;
  RearmResult r;
  r.conns = conns;
  r.queue = "heap";
  r.measured_rounds = kReps;
  r.reschedules = conns;
  uint64_t best_cpu = UINT64_MAX;
  uint64_t worst_allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    uint64_t a0 = AllocProbeAllocCount();
    uint64_t t0 = ThreadCpuNs();
    round();
    uint64_t cpu = ThreadCpuNs() - t0;
    uint64_t allocs = AllocProbeAllocCount() - a0;
    best_cpu = cpu < best_cpu ? cpu : best_cpu;
    worst_allocs = allocs > worst_allocs ? allocs : worst_allocs;
  }
  r.cpu_ns = best_cpu;
  r.allocs = worst_allocs;

  for (size_t i = 0; i < conns; ++i) {
    engine.CloseConnection(ids[i]);
  }
  const RtoEngine::Stats& st = engine.stats();
  r.total_rescheduled = st.timers_rescheduled;
  r.total_fired = st.timers_fired;
  r.conserved = st.timers_scheduled == st.timers_cancelled + st.timers_fired &&
                st.stale_fires == 0;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 2: fault-injected loss - timers fire, back off, and never fire
// early; the probe collects per-dispatch lateness.
// ---------------------------------------------------------------------------

struct AckEvent {
  uint64_t due = 0;
  uint32_t idx = 0;
  uint64_t seq = 0;
  bool operator>(const AckEvent& o) const { return due > o.due; }
};

struct LossWorld {
  fault::FaultInjector* inj = nullptr;
  TickClock* clock = nullptr;
  Rng* rng = nullptr;
  std::priority_queue<AckEvent, std::vector<AckEvent>, std::greater<AckEvent>>*
      acks = nullptr;
  std::vector<uint8_t>* done = nullptr;
  size_t done_count = 0;
  uint64_t aborted = 0;
  uint64_t retx_copies_dropped = 0;
  // Fire-probe accumulators. The histogram is the shared metric definition
  // with bench_shard_scaling's isolated-SLO phase (src/stats); its reported
  // percentiles are bucket upper bounds (conservative), max is exact.
  LatencyHistogram lateness;
  uint64_t early_fires = 0;

  uint64_t AckDelay() { return 300 + rng->UniformU64(400); }
};

void LossRetransmit(void* ctx, void* conn_ctx, uint64_t seq_end, uint32_t) {
  LossWorld* w = static_cast<LossWorld*>(ctx);
  uint32_t idx = static_cast<uint32_t>(reinterpret_cast<uintptr_t>(conn_ctx));
  if (w->inj->DropDataSegment()) {
    ++w->retx_copies_dropped;
    return;
  }
  w->acks->push({w->clock->NowTicks() + w->AckDelay(), idx, seq_end});
}

void LossAbort(void* ctx, void* conn_ctx) {
  LossWorld* w = static_cast<LossWorld*>(ctx);
  uint32_t idx = static_cast<uint32_t>(reinterpret_cast<uintptr_t>(conn_ctx));
  if (!(*w->done)[idx]) {
    (*w->done)[idx] = 1;
    ++w->done_count;
  }
  ++w->aborted;
}

void LossFireProbe(void* ctx, const SoftTimerFacility::FireInfo& info) {
  LossWorld* w = static_cast<LossWorld*>(ctx);
  w->lateness.Record(info.lateness_ticks());
  if (info.fired_tick < info.scheduled_tick + info.delta_ticks) {
    ++w->early_fires;
  }
}

struct LossResult {
  size_t conns = 0;
  bool completed = false;  // every connection retired or gave up
  uint64_t fires = 0;
  uint64_t retransmits = 0;
  uint64_t give_ups = 0;
  uint64_t backoff_capped = 0;
  uint64_t karn_suppressed = 0;
  uint64_t data_dropped = 0;
  uint64_t acks_dropped = 0;
  uint64_t burst_dropped = 0;
  uint64_t early_fires = 0;
  uint64_t samples = 0;
  uint64_t lateness_p50 = 0;
  uint64_t lateness_p99 = 0;
  uint64_t lateness_max = 0;
  bool conserved = false;
};

LossResult RunLoss(size_t conns) {
  TickClock clock;
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, rc);
  RtoEngine::Config ec;
  ec.rto_initial_ticks = 4'000;
  ec.rto_min_ticks = 1'000;
  ec.rto_max_ticks = 64'000;
  ec.max_retransmits = 6;
  RtoEngine engine(&rt, nullptr, ec);

  // The chaos plan: 2% data loss and 1% ACK loss for the whole phase, plus
  // a deterministic burst that eats the first conns/100 data segments (a
  // routing flap right as the phase opens).
  fault::FaultPlan plan;
  fault::FaultPlan::PacketLoss loss;
  loss.window = {0, UINT64_MAX / 2};
  loss.data_drop_probability = 0.02;
  loss.ack_drop_probability = 0.01;
  plan.packet_loss.push_back(loss);
  fault::FaultPlan::BurstLoss burst;
  burst.window = {0, UINT64_MAX / 2};
  burst.count = static_cast<uint32_t>(conns / 100);
  burst.match_data = true;
  plan.burst_loss.push_back(burst);
  fault::FaultInjector inj(&clock, plan, /*seed=*/0x5eed);

  Rng delay_rng(0x7075);
  std::priority_queue<AckEvent, std::vector<AckEvent>, std::greater<AckEvent>>
      acks;
  std::vector<uint8_t> done(conns, 0);
  LossWorld world;
  world.inj = &inj;
  world.clock = &clock;
  world.rng = &delay_rng;
  world.acks = &acks;
  world.done = &done;
  engine.set_retransmit_hook(&LossRetransmit, &world);
  engine.set_abort_hook(&LossAbort, &world);
  engine.set_fire_probe(&LossFireProbe, &world);

  std::vector<uint64_t> ids(conns);
  for (size_t i = 0; i < conns; ++i) {
    ids[i] = engine.OpenConnection(
        reinterpret_cast<void*>(static_cast<uintptr_t>(i)));
  }

  // One segment per connection, sends staggered across the early steps;
  // the phase ends when every connection has either retired its segment
  // (ACK delivered, possibly after retransmissions) or given up.
  //
  // Trigger states arrive every ~128 ticks with jitter, the way real
  // trigger opportunities (syscall returns, exception returns) do - the
  // lateness distribution below is exactly that arrival delay.
  constexpr uint64_t kStep = 128;  // mean trigger-state cadence (ticks)
  size_t send_cursor = 0;
  size_t sends_per_step = conns / 1'000 + 1;
  LossResult r;
  r.conns = conns;
  uint64_t iterations = 0;
  while (world.done_count < conns) {
    if (++iterations > 4'000'000) {
      break;  // fail loudly below instead of hanging CI
    }
    clock.Advance(kStep / 2 + delay_rng.UniformU64(kStep));
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    for (size_t k = 0; k < sends_per_step && send_cursor < conns;
         ++k, ++send_cursor) {
      size_t i = send_cursor;
      engine.OnSegmentSent(ids[i], 1'000);
      if (!inj.DropDataSegment()) {
        acks.push({clock.NowTicks() + world.AckDelay(),
                   static_cast<uint32_t>(i), 1'000});
      }
    }
    uint64_t now = clock.NowTicks();
    while (!acks.empty() && acks.top().due <= now) {
      AckEvent ev = acks.top();
      acks.pop();
      if (inj.DropAck()) {
        continue;
      }
      if (engine.OnCumulativeAck(ids[ev.idx], ev.seq) > 0 && !done[ev.idx]) {
        done[ev.idx] = 1;
        ++world.done_count;
      }
    }
  }
  r.completed = world.done_count == conns;
  for (size_t i = 0; i < conns; ++i) {
    if (engine.IsOpen(ids[i])) {
      engine.CloseConnection(ids[i]);
    }
  }

  const RtoEngine::Stats& st = engine.stats();
  r.fires = st.timers_fired;
  r.retransmits = st.retransmits;
  r.give_ups = st.give_ups;
  r.backoff_capped = st.backoff_capped;
  r.karn_suppressed = st.karn_suppressed;
  r.data_dropped = inj.stats().data_dropped;
  r.acks_dropped = inj.stats().acks_dropped;
  r.burst_dropped = inj.stats().burst_dropped;
  r.early_fires = world.early_fires;
  r.samples = world.lateness.count();
  if (r.samples != 0) {
    r.lateness_p50 = world.lateness.Percentile(50.0);
    r.lateness_p99 = world.lateness.Percentile(99.0);
    r.lateness_max = world.lateness.max();
  }
  r.conserved = st.timers_scheduled == st.timers_cancelled + st.timers_fired &&
                st.stale_fires == 0;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 3: PacingWheel under exponential backoff - far deadlines park in
// the overflow ring instead of clamping, and nothing emits early.
// ---------------------------------------------------------------------------

class GapCheckSink : public PacingWheel::BatchSink {
 public:
  GapCheckSink(std::vector<uint64_t>* last_emit,
               std::vector<uint64_t>* interval)
      : last_emit_(last_emit), interval_(interval) {}

  void OnPacedBatch(const PacedEmit* batch, size_t count,
                    uint64_t now_tick) override {
    for (size_t i = 0; i < count; ++i) {
      size_t idx = static_cast<size_t>(batch[i].user_data);
      emits += batch[i].packets;
      uint64_t last = (*last_emit_)[idx];
      // Dispatch lateness of the PREVIOUS emit can eat into the observed
      // gap (deadlines are exact, drain arrival is not), so allow the
      // drain cadence as slack. Anything beyond that is a genuine early
      // fire.
      if (last != 0 && now_tick - last + kDrainSlackTicks < (*interval_)[idx]) {
        ++gap_violations;
      }
      (*last_emit_)[idx] = now_tick;
    }
  }

  static constexpr uint64_t kDrainSlackTicks = 16;
  uint64_t emits = 0;
  uint64_t gap_violations = 0;

 private:
  std::vector<uint64_t>* last_emit_;
  std::vector<uint64_t>* interval_;
};

struct WheelResult {
  size_t flows = 0;
  uint64_t emits = 0;
  uint64_t gap_violations = 0;
  uint64_t horizon_clamps = 0;
  uint64_t overflow_parks = 0;
  uint64_t overflow_cascades = 0;
  uint64_t overflow_reparks = 0;
};

WheelResult RunWheelBackoff(size_t flows) {
  PacingWheel::Config wc;
  wc.quantum_ticks = 8;
  wc.num_slots = 512;  // horizon 4096: the backed-off intervals overflow it
  PacingWheel wheel(wc);
  std::vector<uint64_t> last_emit(flows, 0);
  std::vector<uint64_t> interval(flows, 512);
  GapCheckSink sink(&last_emit, &interval);
  Rng rng(0xca5cade);

  std::vector<PacedFlowId> ids(flows);
  for (size_t i = 0; i < flows; ++i) {
    PacedFlowConfig fc;
    fc.target_interval_ticks = 512;
    fc.min_burst_interval_ticks = 512;  // no catch-up bursts: gaps are clean
    fc.max_coalesced_burst_packets = 1;
    fc.user_data = i;
    ids[i] = wheel.AddFlow(fc);
    wheel.Activate(ids[i], 0, rng.UniformU64(512));
  }

  uint64_t now = 0;
  auto drive = [&](uint64_t span) {
    uint64_t end = now + span;
    while (now < end) {
      now += wc.quantum_ticks + rng.UniformU64(wc.quantum_ticks / 2);
      wheel.Drain(now, &sink);
    }
  };

  drive(2 * 4096);  // steady state at the base rate

  // Backoff ladder: 1024 -> 32768 ticks. From 8192 up the interval exceeds
  // the 4096-tick horizon, so every requeue parks in the overflow ring and
  // cascades back in as the drain cursor reaches its window.
  for (int k = 1; k <= 6; ++k) {
    uint64_t next = 512ull << k;
    for (size_t i = 0; i < flows; ++i) {
      wheel.ReRate(ids[i], now, next, next);
      interval[i] = next;
      last_emit[i] = 0;  // re-rate restarts the train: reset the gap base
    }
    drive(2 * next);
  }

  // Recovery: back to the base rate (loss episode over).
  for (size_t i = 0; i < flows; ++i) {
    wheel.ReRate(ids[i], now, 512, 512);
    interval[i] = 512;
    last_emit[i] = 0;
  }
  drive(2 * 4096);

  WheelResult r;
  r.flows = flows;
  r.emits = sink.emits;
  r.gap_violations = sink.gap_violations;
  r.horizon_clamps = wheel.stats().horizon_clamps;
  r.overflow_parks = wheel.stats().overflow_parks;
  r.overflow_cascades = wheel.stats().overflow_cascades;
  r.overflow_reparks = wheel.stats().overflow_reparks;
  return r;
}

// ---------------------------------------------------------------------------
// Phase 4: Tables 6/7 at connection scale - slow-start avoidance on the
// RTO substrate.
// ---------------------------------------------------------------------------

struct TransferResult {
  int rounds = 0;
  uint64_t completion_ticks = 0;
  uint64_t timer_ops = 0;
  uint64_t cpu_ns = 0;
  bool clean = false;  // no fires, exact conservation
  double ns_per_op() const {
    return timer_ops == 0
               ? 0.0
               : static_cast<double>(cpu_ns) / static_cast<double>(timer_ops);
  }
};

TransferResult RunTransfer(size_t conns, bool rate_based) {
  constexpr uint32_t kSegments = 8;  // per-connection transfer length
  constexpr uint64_t kRttTicks = 400;
  TickClock clock;
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = 1;
  ShardedSoftTimerRuntime rt(&clock, rc);
  RtoEngine::Config ec;
  ec.rto_initial_ticks = 4'000;  // >> kSegments/window * RTT: no spurious RTO
  ec.rto_min_ticks = 1'000;
  ec.rto_max_ticks = 64'000;
  RtoEngine engine(&rt, nullptr, ec);

  std::vector<uint64_t> ids(conns);
  for (size_t i = 0; i < conns; ++i) {
    ids[i] = engine.OpenConnection(nullptr);
  }

  TransferResult r;
  uint64_t t0 = ThreadCpuNs();
  uint32_t remaining = kSegments;
  uint32_t cwnd = rate_based ? kRtoWindowSegments : 1;
  uint32_t sent_base = 0;
  while (remaining > 0) {
    uint32_t k = cwnd < remaining ? cwnd : remaining;
    if (k > kRtoWindowSegments) {
      k = kRtoWindowSegments;
    }
    for (size_t i = 0; i < conns; ++i) {
      for (uint32_t s = 0; s < k; ++s) {
        engine.OnSegmentSent(ids[i], (sent_base + s + 1) * 1'000ull);
      }
    }
    clock.Advance(kRttTicks);
    rt.OnTriggerState(0, TriggerSource::kSyscall);
    uint64_t ack = (sent_base + k) * 1'000ull;
    for (size_t i = 0; i < conns; ++i) {
      engine.OnCumulativeAck(ids[i], ack);
    }
    sent_base += k;
    remaining -= k;
    cwnd = cwnd * 2 < kRtoWindowSegments ? cwnd * 2 : kRtoWindowSegments;
    ++r.rounds;
  }
  r.cpu_ns = ThreadCpuNs() - t0;
  r.completion_ticks = static_cast<uint64_t>(r.rounds) * kRttTicks;
  for (size_t i = 0; i < conns; ++i) {
    engine.CloseConnection(ids[i]);
  }
  const RtoEngine::Stats& st = engine.stats();
  r.timer_ops = st.timers_scheduled + st.timers_cancelled;
  r.clean = st.timers_fired == 0 &&
            st.timers_scheduled == st.timers_cancelled + st.timers_fired;
  return r;
}

// ---------------------------------------------------------------------------

int Run(const std::string& json_path, bool smoke, size_t conns_override) {
  size_t conns = smoke ? 20'000 : 1'000'000;
  if (conns_override > 0) {
    conns = conns_override;
  }
  size_t wheel_flows = smoke ? 2'000 : 50'000;

  std::printf("rto churn: %zu connections...\n", conns);
  ChurnResult churn = RunChurn(conns);
  std::printf(
      "  %.1f ns/op  %.1fM ops/sec  allocs/op %.6f  cancelled %.4f  fired "
      "%" PRIu64 "\n",
      churn.ns_per_op(), churn.ops_per_sec() / 1e6, churn.allocs_per_op(),
      churn.cancelled_ratio(), churn.total_fired);

  // A full million-conn re-arm run is heavy; a quarter of the churn
  // population keeps it proportionate while staying way past cache sizes.
  size_t rearm_conns = conns / 4 > 0 ? conns / 4 : 1;
  std::printf("rto rearm: %zu connections x %u-segment windows...\n",
              rearm_conns, kRtoWindowSegments);
  RearmResult rearm = RunRearm(rearm_conns);
  std::printf(
      "  %s  %.1f ns/reschedule  allocs/op %.6f  fired %" PRIu64 "\n",
      rearm.queue, rearm.ns_per_reschedule(), rearm.allocs_per_op(),
      rearm.total_fired);

  std::printf("rto loss: %zu connections under chaos plan...\n", conns);
  LossResult loss = RunLoss(conns);
  std::printf(
      "  fires %" PRIu64 "  retransmits %" PRIu64 "  give_ups %" PRIu64
      "  lateness p50/p99/max %" PRIu64 "/%" PRIu64 "/%" PRIu64
      " ticks  early %" PRIu64 "\n",
      loss.fires, loss.retransmits, loss.give_ups, loss.lateness_p50,
      loss.lateness_p99, loss.lateness_max, loss.early_fires);

  std::printf("wheel backoff: %zu flows...\n", wheel_flows);
  WheelResult wheel = RunWheelBackoff(wheel_flows);
  std::printf(
      "  emits %" PRIu64 "  parks %" PRIu64 "  cascades %" PRIu64
      "  reparks %" PRIu64 "  clamps %" PRIu64 "  gap violations %" PRIu64
      "\n",
      wheel.emits, wheel.overflow_parks, wheel.overflow_cascades,
      wheel.overflow_reparks, wheel.horizon_clamps, wheel.gap_violations);

  std::printf("slow-start avoidance: %zu transfers x 8 segments...\n", conns);
  TransferResult self_clocked = RunTransfer(conns, /*rate_based=*/false);
  TransferResult rate_based = RunTransfer(conns, /*rate_based=*/true);
  double speedup =
      rate_based.completion_ticks == 0
          ? 0.0
          : static_cast<double>(self_clocked.completion_ticks) /
                static_cast<double>(rate_based.completion_ticks);
  std::printf(
      "  self-clocked %d rounds (%" PRIu64 " ticks)  rate-based %d rounds "
      "(%" PRIu64 " ticks)  speedup %.2fx\n",
      self_clocked.rounds, self_clocked.completion_ticks, rate_based.rounds,
      rate_based.completion_ticks, speedup);

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"softtimer-rto-v1\",\n");
    std::fprintf(
        f,
        "  \"note\": \"RtoEngine (one RFC 6298 retransmission timer per "
        "connection) on ShardedSoftTimerRuntime; 1 tick = 1 us nominal. churn: "
        "send+cumulative-ACK rounds, cost is thread CPU "
        "(CLOCK_THREAD_CPUTIME_ID) over schedule+cancel ops (best of 3 "
        "rounds), allocs from the operator-new probe (worst of 3). rearm: "
        "4-segment windows under partial ACKs, every ACK restarts the "
        "connection's one timer (RFC 6298 5.3) in place on the heap and the "
        "refilling send schedules nothing, cost normalized per restart. loss: "
        "FaultInjector plan (2%% data, 1%% ACK, burst=conns/100), lateness "
        "from the engine fire probe against a 128-tick trigger cadence. "
        "wheel: PacingWheel flows re-rated through doubling intervals past "
        "the 4096-tick horizon. slowstart: 8-segment transfers, window 4, "
        "RTT 400 ticks, self-clocked vs rate-based rounds (Tables 6/7 "
        "shape)\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(
        f,
        "  \"churn\": {\"conns\": %zu, \"schedules_per_round\": %" PRIu64
        ", \"cancels_per_round\": %" PRIu64 ", \"cpu_ns\": %" PRIu64
        ", \"ns_per_op\": %.2f, \"ops_per_sec\": %.0f, \"allocs_per_op\": "
        "%.6f, \"cancelled_ratio\": %.6f, \"timers_fired\": %" PRIu64
        ", \"conserved\": %s},\n",
        churn.conns, churn.schedules, churn.cancels, churn.cpu_ns,
        churn.ns_per_op(), churn.ops_per_sec(), churn.allocs_per_op(),
        churn.cancelled_ratio(), churn.total_fired,
        churn.conserved ? "true" : "false");
    std::fprintf(
        f,
        "  \"rearm\": {\"conns\": %zu, \"queue\": \"%s\", "
        "\"reschedules_per_round\": %" PRIu64 ", \"cpu_ns\": %" PRIu64
        ", \"ns_per_reschedule\": %.2f, \"allocs_per_op\": %.6f, "
        "\"timers_rescheduled\": %" PRIu64 ", \"timers_fired\": %" PRIu64
        ", \"conserved\": %s},\n",
        rearm.conns, rearm.queue, rearm.reschedules, rearm.cpu_ns,
        rearm.ns_per_reschedule(), rearm.allocs_per_op(),
        rearm.total_rescheduled, rearm.total_fired,
        rearm.conserved ? "true" : "false");
    std::fprintf(
        f,
        "  \"loss\": {\"conns\": %zu, \"completed\": %s, \"fires\": %" PRIu64
        ", \"retransmits\": %" PRIu64 ", \"give_ups\": %" PRIu64
        ", \"backoff_capped\": %" PRIu64 ", \"karn_suppressed\": %" PRIu64
        ", \"data_dropped\": %" PRIu64 ", \"acks_dropped\": %" PRIu64
        ", \"burst_dropped\": %" PRIu64 ", \"lateness_samples\": %" PRIu64
        ", \"lateness_p50_ticks\": %" PRIu64 ", \"lateness_p99_ticks\": %" PRIu64
        ", \"lateness_max_ticks\": %" PRIu64 ", \"early_fires\": %" PRIu64
        ", \"conserved\": %s},\n",
        loss.conns, loss.completed ? "true" : "false", loss.fires,
        loss.retransmits, loss.give_ups, loss.backoff_capped,
        loss.karn_suppressed, loss.data_dropped, loss.acks_dropped,
        loss.burst_dropped, loss.samples, loss.lateness_p50, loss.lateness_p99,
        loss.lateness_max, loss.early_fires, loss.conserved ? "true" : "false");
    std::fprintf(
        f,
        "  \"wheel_backoff\": {\"flows\": %zu, \"emits\": %" PRIu64
        ", \"gap_violations\": %" PRIu64 ", \"horizon_clamps\": %" PRIu64
        ", \"overflow_parks\": %" PRIu64 ", \"overflow_cascades\": %" PRIu64
        ", \"overflow_reparks\": %" PRIu64 "},\n",
        wheel.flows, wheel.emits, wheel.gap_violations, wheel.horizon_clamps,
        wheel.overflow_parks, wheel.overflow_cascades, wheel.overflow_reparks);
    std::fprintf(
        f,
        "  \"slowstart\": {\"conns\": %zu, \"segments_per_transfer\": 8, "
        "\"self_clocked_rounds\": %d, \"self_clocked_completion_ticks\": "
        "%" PRIu64 ", \"rate_based_rounds\": %d, "
        "\"rate_based_completion_ticks\": %" PRIu64
        ", \"speedup\": %.3f, \"self_clocked_ns_per_op\": %.2f, "
        "\"rate_based_ns_per_op\": %.2f}\n",
        conns, self_clocked.rounds, self_clocked.completion_ticks,
        rate_based.rounds, rate_based.completion_ticks, speedup,
        self_clocked.ns_per_op(), rate_based.ns_per_op());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Acceptance gates (see ISSUE/EXPERIMENTS): fail loudly so the smoke CI
  // entry catches regressions instead of committing a rotten artifact.
  int rc = 0;
  if (churn.cancelled_ratio() < 0.95) {
    std::fprintf(stderr, "FAIL: churn cancelled ratio %.4f < 0.95\n",
                 churn.cancelled_ratio());
    rc = 1;
  }
  if (churn.allocs_per_op() > 1e-6) {
    std::fprintf(stderr, "FAIL: churn allocs/op %.6f != 0\n",
                 churn.allocs_per_op());
    rc = 1;
  }
  if (churn.total_fired != 0) {
    std::fprintf(stderr, "FAIL: churn fired %" PRIu64 " timers (no loss!)\n",
                 churn.total_fired);
    rc = 1;
  }
  if (!churn.conserved) {
    std::fprintf(stderr, "FAIL: churn timer accounting not conserved\n");
    rc = 1;
  }
  // warmup + measured rounds, one restart per connection each.
  uint64_t rearm_expected =
      static_cast<uint64_t>(1 + rearm.measured_rounds) * rearm.reschedules;
  if (rearm.total_rescheduled != rearm_expected) {
    std::fprintf(stderr,
                 "FAIL: rearm (%s) restarted %" PRIu64 " timers, want %" PRIu64
                 " (one per connection per round)\n",
                 rearm.queue, rearm.total_rescheduled, rearm_expected);
    rc = 1;
  }
  if (rearm.allocs_per_op() > 1e-6) {
    std::fprintf(stderr, "FAIL: rearm (%s) allocs/op %.6f != 0\n", rearm.queue,
                 rearm.allocs_per_op());
    rc = 1;
  }
  if (rearm.total_fired != 0) {
    std::fprintf(stderr,
                 "FAIL: rearm (%s) fired %" PRIu64 " timers (restarts "
                 "should always win)\n",
                 rearm.queue, rearm.total_fired);
    rc = 1;
  }
  if (!rearm.conserved) {
    std::fprintf(stderr, "FAIL: rearm (%s) timer accounting not conserved\n",
                 rearm.queue);
    rc = 1;
  }
  if (!loss.completed) {
    std::fprintf(stderr, "FAIL: loss phase did not drain every connection\n");
    rc = 1;
  }
  if (loss.fires == 0 || loss.retransmits == 0) {
    std::fprintf(stderr, "FAIL: loss phase fired no RTOs (chaos inert)\n");
    rc = 1;
  }
  if (loss.early_fires != 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " RTO timers fired early\n",
                 loss.early_fires);
    rc = 1;
  }
  if (!loss.conserved) {
    std::fprintf(stderr, "FAIL: loss timer accounting not conserved\n");
    rc = 1;
  }
  if (wheel.horizon_clamps != 0) {
    std::fprintf(stderr, "FAIL: wheel clamped %" PRIu64 " deadlines\n",
                 wheel.horizon_clamps);
    rc = 1;
  }
  if (wheel.overflow_parks == 0 || wheel.overflow_cascades == 0) {
    std::fprintf(stderr, "FAIL: backoff never reached the overflow ring\n");
    rc = 1;
  }
  if (wheel.gap_violations != 0) {
    std::fprintf(stderr, "FAIL: %" PRIu64 " paced emits arrived early\n",
                 wheel.gap_violations);
    rc = 1;
  }
  if (speedup < 1.2 || !self_clocked.clean || !rate_based.clean) {
    std::fprintf(stderr,
                 "FAIL: slow-start avoidance speedup %.2f < 1.2 or unclean\n",
                 speedup);
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace softtimer

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  size_t conns = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--conns=", 8) == 0) {
      conns = static_cast<size_t>(std::strtoull(argv[i] + 8, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  return softtimer::Run(json_path, smoke, conns);
}
