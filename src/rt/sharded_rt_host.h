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
//    next soft-event deadline and one backup period, so the paper's
//    T < actual < T + X + 1 bound holds per shard. The earliest queue
//    deadline bounds the sleep too, unless a sibling already wakes for it:
//    one that is awake, or asleep with a plan at or before it
//    (SleeperGate::Covers). The parking shard publishes its own plan before
//    it reads its siblings', so of shards parking at once the last one
//    takes the deadline, and a covering shard that stalls holds the queue
//    up at most until another shard's own wake or backup period.
//    On Linux the loop thread's timer slack is held to kShardTimerSlackNs,
//    so each sleep overshoots its deadline by at most that much instead of
//    the OS default of 50 us. A deadline nearer than kShardSpinHorizonNs is
//    not worth a sleep: the shard spins to it instead (SpinUntil), the way
//    the paper's idle loop halts only when nothing is due before the next
//    backup interrupt. A wait bounded by the backup period always sleeps.
//    Each of these choices is a function of ticks alone: PlanWait decides
//    the wait and JudgeWait the wake, and the sleep step (SleepAndDispatch)
//    only reads the clock, publishes, blocks and checks around them, so
//    tests call the two with an explicit `now`.
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
// Wakeups. A cross-core command must not wait out the target shard's
// sleep when it falls due before the sleep ends, so the runtime's wake hook
// pokes the target thread's eventcount (src/rt/eventcount.h: an atomic word
// holding the sleeper's planned wake tick, plus the condvar). The hook gets
// the command's due tick, and a producer takes the shard's mutex only when
// the target is asleep and the poke can matter: the command is due before
// the planned wake, or that wake is less than kShardNotifyHorizonNs away.
// Any other poke is skipped and counted (ShardLoopStats::
// wakeups_suppressed): the shard's own wake drains the command before it
// falls due. That relies on the shard waking at its planned tick, so a
// shard whose sleep ended more than one backup period past its plan
// publishes no plan for the next kShardLateWakeHoldNs, and every poke is
// delivered (ShardLoopStats::late_wakes counts such wakes). The seq_cst
// fences on both sides close the classic sleep/publish race, and the
// backup bound makes even a hypothetical missed wakeup a bounded-lateness
// event, never a lost one. A spinning shard is never a sleeper, and neither
// is a sleeping shard while it spins to a near deadline, so a poke aimed at
// either is a no-op: the spin itself watches the shard's pending flag.
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
  // Notify horizon of a sleeping shard: a producer whose command falls due
  // at or after the shard's planned wake still pokes it when that wake is
  // less than this far away (or already past). The spin horizon plus a
  // 10 us lead: a poke lands the sleeper about 10 us later, so inside this
  // horizon it ends the sleep inside the spin horizon or cuts an oversleep
  // past the planned tick, either way keeping the shard's own deadline on
  // time. Fixed, like the spin horizon: on timer_fanout, 5 us raised
  // lateness p50 by a third and 10 us still left it above the horizon-free
  // wake's, while 20 us cost 10% more CPU per timer (DESIGN.md section 13).
  static constexpr uint64_t kShardNotifyHorizonNs =
      kShardSpinHorizonNs + 10'000;
  // How long a sleeping shard publishes SleeperGate::kUnplannedWake instead
  // of its planned wake after a sleep that ended more than one backup period
  // past its plan. Skipping a poke is only safe while the shard's own wakes
  // come on time; a late one means the OS is not running the thread
  // promptly, e.g. it shares a CPU with a spinning producer. Such wakes come
  // in runs tens of milliseconds apart, and delivering every poke while they
  // last is what moves the thread off that CPU: on timer_fanout a run that
  // started with all threads on one CPU left it 1.5-3.5 s in with the
  // pokes, and stayed there for the whole run without them (DESIGN.md
  // section 13).
  static constexpr uint64_t kShardLateWakeHoldNs = 100'000'000;

  // A sleeping shard's wait, as PlanWait decides it from ticks alone.
  struct WaitPlan {
    // Where the wait ends: the spin target, or the sleep's own plan (the
    // shard's next deadline, else one backup period out) before any
    // lowering to the queue deadline.
    uint64_t wake_tick;
    // What the sleeper gate carries for the sleep: wake_tick, or
    // SleeperGate::kUnplannedWake during a late-wake hold.
    uint64_t published_tick;
    // The own plan is one backup period out: nothing of the shard's own
    // falls due before it.
    bool backup_bound;
    // The queue deadline comes before the own plan: the sleep ends there
    // unless a sibling covers it (SleeperGate::Covers).
    bool queue_first;
    // The wait ends inside the spin horizon (or has already ended) at a
    // deadline: spin to wake_tick instead of sleeping.
    bool spin;
  };
  // The wait of a sleeping shard at `now` whose next soft-event deadline is
  // `next_deadline` and whose queue gate reads `queue_due` (either may be
  // ShardedSoftTimerRuntime::kNeverDue), during a late-wake hold or not.
  // A wait bounded by the backup period always sleeps, however short.
  // SOFTTIMER_HOT
  static constexpr WaitPlan PlanWait(uint64_t now, uint64_t next_deadline,
                                     uint64_t backup_ticks, uint64_t queue_due,
                                     uint64_t spin_horizon_ticks, bool hold) {
    WaitPlan plan{now + backup_ticks, 0, true, false, false};
    if (next_deadline < plan.wake_tick) {
      plan.wake_tick = next_deadline;
      plan.backup_bound = false;
    }
    plan.queue_first = queue_due < plan.wake_tick;
    uint64_t first_tick = plan.queue_first ? queue_due : plan.wake_tick;
    // Nearer than a sleep/wake costs (a deadline already passed included).
    plan.spin = (plan.queue_first || !plan.backup_bound) &&
                first_tick <= now + spin_horizon_ticks;
    if (plan.spin) {
      plan.wake_tick = first_tick;
    }
    plan.published_tick = hold ? SleeperGate<>::kUnplannedWake : plan.wake_tick;
    return plan;
  }

  // The verdict on a sleep that ended at `woke`, planned to end at
  // `wake_tick` (after any lowering to the queue deadline).
  struct WakeVerdict {
    // More than one backup period past the plan: starts a late-wake hold.
    bool late;
    // The check that follows: kBackupIntr when a backup-bound sleep ran to
    // its tick, kIdleLoop after a poke or a deadline-bound wake.
    TriggerSource source;
  };
  // SOFTTIMER_HOT
  static constexpr WakeVerdict JudgeWait(uint64_t woke, uint64_t wake_tick,
                                         uint64_t backup_ticks,
                                         bool backup_bound) {
    return {woke > wake_tick + backup_ticks,
            backup_bound && woke >= wake_tick ? TriggerSource::kBackupIntr
                                              : TriggerSource::kIdleLoop};
  }

  struct ShardProfileConfig {
    // Spin instead of sleeping: a dedicated core whose idle step is the
    // spin step (compensated software backup, steal-aware clean lateness)
    // rather than a sleep.
    bool isolated = false;
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
    // packets), and `next_due` bounds the sleep of one parked shard, the
    // last to park while no sibling wakes for it, so no due queue waits for
    // a backup interrupt when every shard has parked.
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
    // Producer pokes skipped: the sleeper's planned wake came before the
    // command's due tick and was not within the notify horizon.
    uint64_t wakeups_suppressed = 0;
    // Sleeps that ended more than one backup period past their planned wake
    // (each one starts a kShardLateWakeHoldNs hold).
    uint64_t late_wakes = 0;
    uint64_t queue_polls = 0;    // queue_work.poll invocations by this shard
    uint64_t queue_packets = 0;  // packets those invocations drained
    // Sleeps whose wait ended at the queue gate's next-due tick.
    uint64_t queue_bound_sleeps = 0;
    // Sleeps whose following check fired nothing and whose next queue poll
    // (if the host has queue work) drained nothing.
    uint64_t wasted_wakes = 0;
  };
  // Safe while running for `wakeups` and `wakeups_suppressed`; read the
  // rest after Stop() (or accept a torn-but-monotonic snapshot).
  ShardLoopStats shard_loop_stats(size_t shard) const;

  // The tick a sleeping shard plans to wake at (SleeperGate::kUnplannedWake
  // during a late-wake hold), 0 while it is awake or spinning. Safe while
  // running (a relaxed read of the sleeper gate).
  uint64_t planned_wake_tick(size_t shard) const {
    return loops_[shard]->gate.planned_wake_relaxed();
  }

  // Counters of the spin step (all zero on a sleeping shard). Its backup
  // checks are ShardLoopStats::backup_checks. Quiesced reads only, like the
  // histograms below.
  struct IsolatedShardStats {
    uint64_t steal_events = 0;  // spin steps whose gap since the previous
                                // one exceeded the steal threshold
    uint64_t stolen_ticks = 0;  // total ticks inside detected steal gaps
    uint64_t max_gap_ticks = 0; // largest step-to-step clock gap seen
    // Dispatches excluded from the clean histogram because a steal was
    // detected in the gap before or after their check (they stay in raw).
    uint64_t steal_suppressed_dispatches = 0;
    uint64_t backup_on_time = 0;    // fired at or before the nominal D
    uint64_t backup_true_late = 0;  // fired past D with no steal detected
    uint64_t backup_steal_late = 0; // fired past D because of a steal
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
  // steal verdict (see LatenessProbe). Far above any sane dispatch batch
  // between two spin steps; overflow falls back to raw-only recording.
  static constexpr size_t kCleanBufferCap = 64;

  // Everything one shard's loop thread touches, cache-line separated.
  struct alignas(kCacheLineBytes) ShardLoop {
    std::mutex m;
    std::condition_variable cv;
    // Holds the planned wake tick while the loop thread is inside (or
    // committed to entering) a condvar wait; producers only take the mutex
    // when it says the poke can matter, and a parking sibling reads it to
    // leave the queue deadline to this shard. The word+fence protocol lives
    // in src/rt/eventcount.h (model-checked by tests/model_check_test.cc).
    SleeperGate<> gate;
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> wakeups_suppressed{0};
    // Loop-thread writes (the two producer counters mirrored on read).
    ShardLoopStats stats;
    IsolatedShardStats iso;
    // Lateness-probe and spin-step state, loop-thread only. `isolated` is
    // set at construction.
    bool isolated = false;
    bool check_tainted = false;  // the last spin step's gap was a steal
    uint64_t unplanned_until = 0;  // end of the late-wake hold (a tick)
    uint64_t prev_spin_tick = 0;   // clock read of the last spin step
    uint64_t backup_deadline = 0;  // nominal deadline D of the next backup
    size_t pending_clean_count = 0;
    std::array<uint64_t, kCleanBufferCap> pending_clean{};
    LatencyHistogram lateness_clean;  // spinning shards only
    std::thread thread;
  };

  // The runtime's wake hook: notifies the shard's sleeper when PokeMatters.
  static void WakeShard(void* ctx, size_t shard, uint64_t due_tick,
                        uint64_t enqueue_tick);
  // The producer's skip decision for a command due at `due_tick`: false
  // when the shard is awake, or asleep until a tick at or before the due
  // tick that is not within the notify horizon (counted as suppressed).
  // Never blocks: the mutex and the notify stay in WakeShard.
  bool PokeMatters(ShardLoop& loop, uint64_t due_tick, uint64_t enqueue_tick);
  // The facility's dispatch hook on a spinning shard, with the shard's
  // ShardLoop as context: sorts each dispatch into the clean histogram or
  // out of it, and charges no cost. Runs inside DispatchFired on the loop
  // thread (or whichever thread drives a quiesced facility in tests).
  static uint64_t LatenessProbe(void* ctx,
                                const SoftTimerFacility::FireInfo& info);
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
  // wait ends at a deadline inside the spin horizon, then a check; returns
  // whether it slept and that check fired nothing.
  bool SleepAndDispatch(size_t shard);
  // Whether a sibling of `shard` wakes for a queue deadline at `due_tick`
  // (SleeperGate::Covers on each sibling's gate). Read after the shard's own
  // PrepareSleep, whose fence orders these loads after its publish.
  bool SiblingCovers(size_t shard, uint64_t due_tick) const;
  // Spins until the clock reaches `wake_tick`, a command is pending for the
  // shard, or the host stops. Never raises the sleeper gate.
  void SpinUntil(size_t shard, uint64_t wake_tick);

  Config config_;
  MonotonicClockSource clock_;
  uint64_t spin_horizon_ticks_;  // kShardSpinHorizonNs in measure ticks
  uint64_t notify_horizon_ticks_;  // kShardNotifyHorizonNs in measure ticks
  uint64_t late_hold_ticks_;  // kShardLateWakeHoldNs in measure ticks
  std::unique_ptr<ShardedSoftTimerRuntime> runtime_;
  std::vector<std::unique_ptr<ShardLoop>> loops_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
