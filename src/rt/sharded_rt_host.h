// Real-time host for ShardedSoftTimerRuntime: one trigger-loop thread per
// shard, each playing the role the paper assigns to a CPU. A one-shard host
// runs the paper's mechanism in an ordinary user-space event loop instead
// of the simulator.
//
// Every shard runs one loop (RunShard). Each iteration performs a
// trigger-state check, then Config::shard_tick (application work at the
// loop's natural check point), then one Config::queue_work poll (the
// network polling every shard serves; Section 5.2: idle CPUs poll instead
// of halting), then the idle step. Only the idle step depends on the
// shard's one setting, ShardProfileConfig::isolated:
//
//  * A sleeping shard (the default) sleeps, bounded by the earlier of its
//    next soft-event deadline, the earliest queue deadline and one backup
//    period, so the paper's T < actual < T + X + 1 bound holds per shard.
//    On Linux the loop thread's timer slack is held to kShardTimerSlackNs,
//    so each sleep overshoots its deadline by at most that much instead of
//    the OS default of 50 us. A deadline nearer than kShardSpinHorizonNs is
//    not worth a sleep: the shard spins to it instead (SpinUntil), the way
//    the paper's idle loop halts only when nothing is due before the next
//    backup interrupt. A wait bounded by the backup period always sleeps.
//
//  * A spinning ("isolated") shard takes a spin step instead (DESIGN.md
//    section 14): a dedicated core that never parks, so a cross-core
//    schedule is picked up within one check gap instead of one condvar
//    wakeup. The step emulates the backup interrupt in software and arms it
//    EARLY by a compensation calibrated at start-up (CHRONOS-style: the
//    arm-to-fire overhead of a software backup is the loop's check gap, and
//    subtracting it from the backup deadline makes on-time fires structural
//    rather than lucky). Because this repo's CI runs on shared VMs where the
//    hypervisor steals the CPU for multi-microsecond stretches, the step
//    also detects preemption (clock-read gap above a steal threshold) and
//    the shard keeps TWO dispatch-lateness histograms: `raw` (every
//    dispatch) and `clean` (dispatches not adjacent to a detected steal).
//    SLO gates read the clean histogram - the same CPU-attribution
//    methodology as the bench suite's CPU-time-per-op numbers - while raw
//    is always reported alongside.
//
// Wakeups. A cross-core schedule must not wait out the target shard's
// sleep, so the runtime's wake hook pokes the target thread's eventcount
// (atomic `sleeping` flag + condvar). Producers take the shard's mutex only
// when the target is actually asleep; the seq_cst fences on both sides
// close the classic sleep/publish race, and the backup bound makes even a
// hypothetical missed wakeup a bounded-lateness event, never a lost one. A
// spinning shard is never a sleeper, and neither is a sleeping shard while
// it spins to a near deadline, so a poke aimed at either is a no-op: the
// spin itself watches the shard's pending flag.
//
// Producer threads (application threads scheduling onto shards) register
// through RegisterProducer() and use the runtime's cross-core API directly.

#ifndef SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
#define SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/sharded_soft_timer_runtime.h"
#include "src/rt/eventcount.h"
#include "src/rt/monotonic_clock_source.h"
#include "src/stats/latency_histogram.h"

namespace softtimer {

class ShardedRtHost {
 public:
  // Timer slack of a sleeping shard's loop thread (Linux PR_SET_TIMERSLACK):
  // how late the OS may fire the one-shot timer that ends a sleep. Fixed
  // rather than configured because one value served every composed workload
  // (DESIGN.md section 13). Spinning shards never sleep.
  static constexpr unsigned long kShardTimerSlackNs = 20'000;
  // Spin horizon of a sleeping shard: a wait that ends at the shard's own
  // next deadline or at the queue gate's, at most this far away, spins
  // instead of sleeping. Below what one condvar sleep/wake costs in thread
  // CPU (6-8 us), so a spun wait costs less than the sleep it replaces and
  // ends without the sleep's ~25 us oversleep. Fixed, like the slack: at
  // 10 us web_mixed's pacing drains stop batching and its CPU rises by a
  // third (DESIGN.md section 13).
  static constexpr uint64_t kShardSpinHorizonNs = 5'000;

  struct ShardProfileConfig {
    // Spin instead of sleeping: a dedicated core whose idle step is the
    // spin step (compensated software backup, steal-aware clean lateness)
    // rather than a sleep.
    bool isolated = false;
    // Dispatch-lateness SLO budget in measure ticks. Clean dispatches whose
    // FireInfo::lateness_ticks() exceeds it bump IsolatedShardStats::
    // slo_violations. 0 disables SLO accounting. Honoured on either kind of
    // shard (on a sleeping shard every dispatch counts as clean, since only
    // the spin step performs steal detection).
    uint64_t slo_lateness_ticks = 0;
  };

  struct Config {
    size_t num_shards = 2;
    uint64_t measure_hz = 1'000'000;
    uint64_t interrupt_clock_hz = 1'000;  // backup bound: 1 ms
    // M-on-N claimed queue polling (MultiQueuePoller, src/net): the shared
    // idle-time work of the paper's Section 5.2 (idle CPUs poll the network
    // instead of halting). queue_work is served by EVERY shard concurrently
    // - per-queue exclusivity is the callee's problem (the QueueClaim
    // protocol). `poll` runs once per loop iteration (it claims and drains
    // at most one due queue; the loop skips its idle step while it returns
    // packets), and `next_due` bounds a sleeping shard's sleep so no due
    // queue waits for a backup interrupt when every shard has parked.
    struct QueueWork {
      // (shard, now_tick) -> packets drained; typically
      // MultiQueuePoller::PollOnce with shard as the core id.
      std::function<size_t(size_t shard, uint64_t now_tick)> poll;
      // Set-wide earliest next-due tick (MultiQueuePoller::next_due_tick).
      std::function<uint64_t()> next_due;
    };
    QueueWork queue_work;
    // Per-shard hooks, each invoked on the shard's own loop thread (so they
    // may freely touch that shard's facility and shard-local state such as
    // a PacingWheelHost). `shard_setup` runs once, before the loop's first
    // iteration; `shard_tick` runs every iteration right after the
    // trigger-state check (e.g. an opportunistic PacingWheelHost::Poll()).
    std::function<void(size_t shard)> shard_setup;
    std::function<void(size_t shard)> shard_tick;
    // Per-shard profiles. Empty = every shard sleeps. Otherwise must have
    // exactly num_shards entries; mixed hosts (spinning shard 0 beside
    // sleeping shard 1) are the intended use.
    std::vector<ShardProfileConfig> shard_profiles;
  };

  explicit ShardedRtHost(Config config);
  ~ShardedRtHost();

  ShardedRtHost(const ShardedRtHost&) = delete;
  ShardedRtHost& operator=(const ShardedRtHost&) = delete;

  ShardedSoftTimerRuntime& runtime() { return *runtime_; }
  const MonotonicClockSource& clock() const { return clock_; }
  size_t num_shards() const { return config_.num_shards; }

  // Spawns one trigger-loop thread per shard. After Start(), shard
  // facilities belong to their loop threads: interact through the runtime's
  // producer API (or stop first).
  void Start();
  // Stops and joins all shard threads. Idempotent.
  void Stop();
  bool running() const { return running_; }

  // Registers the calling (producer) thread; see
  // ShardedSoftTimerRuntime::RegisterProducer.
  ShardedSoftTimerRuntime::ProducerToken RegisterProducer() {
    return runtime_->RegisterProducer();
  }

  struct ShardLoopStats {
    uint64_t polls = 0;          // trigger-state checks performed by the loop
    uint64_t sleeps = 0;         // condvar sleeps entered
    uint64_t spins = 0;          // sleeping-shard waits spun, not slept
    uint64_t backup_checks = 0;  // checks attributed to the backup interrupt
    uint64_t wakeups = 0;        // producer pokes delivered to a sleeper
    uint64_t queue_polls = 0;    // queue_work.poll invocations by this shard
    uint64_t queue_packets = 0;  // packets those invocations drained
  };
  // Safe while running for `wakeups`; read the rest after Stop() (or accept
  // a torn-but-monotonic snapshot).
  ShardLoopStats shard_loop_stats(size_t shard) const;

  // Counters of the spin step (all zero on a sleeping shard, except
  // slo_violations). Quiesced reads only, like the histograms below.
  struct IsolatedShardStats {
    uint64_t steal_events = 0;  // spin steps whose gap since the previous
                                // one exceeded the steal threshold
    uint64_t stolen_ticks = 0;  // total ticks inside detected steal gaps
    uint64_t max_gap_ticks = 0; // largest step-to-step clock gap seen
    // Dispatches excluded from the clean histogram because a steal was
    // detected in the gap before or after their check (they stay in raw).
    uint64_t steal_suppressed_dispatches = 0;
    uint64_t backup_fires = 0;      // software-backup checks performed
    uint64_t backup_on_time = 0;    // fired at or before the nominal D
    uint64_t backup_true_late = 0;  // fired past D with no steal detected
    uint64_t backup_steal_late = 0; // fired past D because of a steal
    uint64_t slo_violations = 0;    // clean dispatches over the SLO budget
    // Values derived by the startup calibration, for reporting.
    uint64_t calibrated_gap_ticks = 0;   // median spin check gap
    uint64_t steal_threshold_ticks = 0;
    uint64_t compensation_ticks = 0;
  };
  IsolatedShardStats isolated_shard_stats(size_t shard) const;

  // Dispatch-lateness histograms (FireInfo::lateness_ticks per dispatched
  // handler). Raw is the shard facility's Stats::lateness_ticks. On a
  // sleeping shard clean is that same histogram; on a spinning shard it
  // excludes steal-adjacent dispatches (see header comment). Written by the
  // shard's loop thread: read after Stop(), or from the loop thread itself
  // (shard_tick hooks).
  const LatencyHistogram& shard_lateness_raw(size_t shard) const;
  const LatencyHistogram& shard_lateness_clean(size_t shard) const;

 private:
  // Dispatches buffered between two spin steps, awaiting the trailing-gap
  // steal verdict (see LatenessProbe). Far above any sane dispatch batch for
  // an SLO-carrying shard; overflow falls back to raw-only recording.
  static constexpr size_t kCleanBufferCap = 64;

  // Everything one shard's loop thread touches, cache-line separated.
  struct alignas(kCacheLineBytes) ShardLoop {
    std::mutex m;
    std::condition_variable cv;
    // Raised while the loop thread is inside (or committed to entering) a
    // condvar wait; producers only take the mutex when they observe it. The
    // flag+fence protocol lives in src/rt/eventcount.h (model-checked by
    // tests/model_check_test.cc).
    SleeperGate<> gate;
    std::atomic<uint64_t> wakeups{0};
    ShardLoopStats stats;  // loop-thread writes (wakeups mirrored on read)
    IsolatedShardStats iso;
    // Lateness-probe and spin-step state, loop-thread only. `isolated` and
    // `slo_budget` are set at construction.
    bool isolated = false;
    bool check_tainted = false;  // the last spin step's gap was a steal
    uint64_t slo_budget = 0;
    uint64_t prev_spin_tick = 0;   // clock read of the last spin step
    uint64_t backup_deadline = 0;  // nominal deadline D of the next backup
    size_t pending_clean_count = 0;
    std::array<uint64_t, kCleanBufferCap> pending_clean{};
    LatencyHistogram lateness_clean;  // spinning shards only
    std::thread thread;
  };

  static void WakeShard(void* ctx, size_t shard);
  // Facility lateness probe, installed on spinning and SLO-carrying shard
  // facilities with the shard's ShardLoop as context; runs inside
  // DispatchFired on the loop thread (or whichever thread drives a quiesced
  // facility in tests).
  static void LatenessProbe(void* ctx, const SoftTimerFacility::FireInfo& info);
  void RunShard(size_t shard);
  // A spinning shard's start-up: measures the median spin check gap and
  // derives the steal threshold and the backup compensation from it.
  void CalibrateSpin(size_t shard);
  // A spinning shard's idle step: steal-gap accounting, the compensated
  // software backup, then the pause hint.
  void SpinStep(size_t shard);
  // Flush (clean trailing gap) or suppress (steal trailing gap) the
  // dispatches buffered since the previous spin step.
  void ResolvePendingClean(ShardLoop& loop, bool trailing_steal);
  // A sleeping shard's idle step: a backup-bounded sleep, or a spin when the
  // wait ends at a deadline inside the spin horizon; returns handlers fired
  // by the check performed after it.
  size_t SleepAndDispatch(size_t shard);
  // Spins until the clock reaches `wake_tick`, a command is pending for the
  // shard, or the host stops. Never raises the sleeper gate.
  void SpinUntil(size_t shard, uint64_t wake_tick);

  Config config_;
  MonotonicClockSource clock_;
  uint64_t spin_horizon_ticks_;  // kShardSpinHorizonNs in measure ticks
  std::unique_ptr<ShardedSoftTimerRuntime> runtime_;
  std::vector<std::unique_ptr<ShardLoop>> loops_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
