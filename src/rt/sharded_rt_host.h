// Real-time host for ShardedSoftTimerRuntime: one trigger-loop thread per
// shard, each playing the role the paper assigns to a CPU. A one-shard host
// runs the paper's mechanism in an ordinary user-space event loop instead
// of the simulator.
//
// Every shard thread alternates trigger-state checks with backup-bounded
// sleeps: a sleep never extends past the earlier of the shard's next
// soft-event deadline and one backup period, so the paper's
// T < actual < T + X + 1 bound holds per shard. Work that belongs at the
// loop's natural check points runs inside the loop: Config::shard_tick
// after every check (under IdleStrategy::kBusyPoll the loop never sleeps -
// a DPDK-style busy event loop), and Config::queue_work for the network
// polling every shard serves (Section 5.2: idle CPUs poll instead of
// halting).
//
// Wakeups. A cross-core schedule must not wait out the target shard's
// sleep, so the runtime's wake hook pokes the target thread's eventcount
// (atomic `sleeping` flag + condvar). Producers take the shard's mutex only
// when the target is actually asleep; the seq_cst fences on both sides
// close the classic sleep/publish race, and the backup bound makes even a
// hypothetical missed wakeup a bounded-lateness event, never a lost one.
//
// Per-shard profiles (DESIGN.md section 14). Each shard runs one of two
// loop profiles, selected by Config::shard_profiles so mixed-profile hosts
// are first-class:
//
//  * kNormal - the loop described above (trigger checks + backup-bounded
//    sleeps). On Linux the loop thread's timer slack is held to
//    kShardTimerSlackNs, so each sleep overshoots its deadline by at most
//    that much instead of the OS default of 50 us.
//
//  * kIsolated - a latency-SLO dedicated core: the loop spins on
//    trigger-state checks forever (CpuRelax() pause hint per iteration) and
//    NEVER parks on the eventcount, so a cross-core schedule is picked up
//    within one check gap instead of one condvar wakeup. The backup
//    interrupt is either disabled outright (the spin IS the bound) or
//    emulated in software and armed EARLY by a calibrated compensation
//    (CHRONOS-style: the arm-to-fire overhead of a software backup is the
//    loop's check gap, measured at startup, and subtracting it from the
//    backup deadline makes on-time backup fires structural rather than
//    lucky). Because this repo's CI runs on shared 1-core VMs where the
//    hypervisor steals the CPU for multi-microsecond stretches, the loop
//    also detects preemption (clock-read gap above a steal threshold) and
//    keeps TWO dispatch-lateness histograms: `raw` (every dispatch) and
//    `clean` (dispatches not adjacent to a detected steal). SLO gates read
//    the clean histogram - the same CPU-attribution methodology as the
//    bench suite's CPU-time-per-op numbers - while raw is always reported
//    alongside.
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
  // Timer slack of a normal shard's loop thread (Linux PR_SET_TIMERSLACK):
  // how late the OS may fire the one-shot timer that ends a sleep. Fixed
  // rather than configured because one value served every composed workload
  // (DESIGN.md section 13). Isolated shards spin and never sleep.
  static constexpr unsigned long kShardTimerSlackNs = 20'000;

  enum class IdleStrategy {
    kSleep,     // backup-bounded condvar sleep (production default)
    kBusyPoll,  // spin on trigger-state checks (lowest latency; benches)
  };

  enum class ShardProfile {
    kNormal,    // trigger checks + backup-bounded sleeps (default)
    kIsolated,  // dedicated spinning core, never sleeps on the eventcount
  };

  // Backup-interrupt policy for an isolated shard. The spin loop emulates
  // the backup in software (there is no real timer interrupt to program), so
  // "arming" means picking the tick at which the loop performs a
  // kBackupIntr-attributed check for the backup nominally due at D.
  enum class IsolatedBackup {
    kDisabled,       // no backup at all: the spin is the bound
    kUncompensated,  // arm at D: fires one check gap AFTER D, i.e. late
    kCompensated,    // arm at D - compensation: on-time unless preempted
  };

  struct ShardProfileConfig {
    ShardProfile profile = ShardProfile::kNormal;
    // Isolated shards only; ignored for kNormal.
    IsolatedBackup backup = IsolatedBackup::kCompensated;
    // Dispatch-lateness SLO budget in measure ticks. Clean dispatches whose
    // FireInfo::lateness_ticks() exceeds it bump IsolatedShardStats::
    // slo_violations. 0 disables SLO accounting. Honoured on either profile
    // (a normal shard may carry an SLO too; every dispatch counts as clean
    // there since only the isolated loop performs steal detection).
    uint64_t slo_lateness_ticks = 0;
  };

  struct Config {
    size_t num_shards = 2;
    uint64_t measure_hz = 1'000'000;
    uint64_t interrupt_clock_hz = 1'000;  // backup bound: 1 ms
    IdleStrategy idle_strategy = IdleStrategy::kSleep;
    size_t max_producers = 8;
    // M-on-N claimed queue polling (MultiQueuePoller, src/net): the shared
    // idle-time work of the paper's Section 5.2 (idle CPUs poll the network
    // instead of halting). queue_work is served by EVERY kNormal shard
    // concurrently - per-queue exclusivity is the callee's problem (the
    // QueueClaim protocol). `poll` runs once per loop iteration (it claims
    // and drains at most one due queue; the loop keeps serving while it
    // returns packets), and `next_due` bounds the shard's sleep so no due
    // queue waits for a backup interrupt when every shard has parked.
    // Isolated shards never touch it - the core is dedicated.
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
    // Per-shard profiles. Empty = every shard runs kNormal. Otherwise must
    // have exactly num_shards entries; mixed hosts (isolated shard 0 beside
    // normal shard 1) are the intended use. Isolated shards ignore
    // idle_strategy and queue_work - the core is dedicated.
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
    uint64_t backup_checks = 0;  // checks attributed to the backup interrupt
    uint64_t wakeups = 0;        // producer pokes delivered to a sleeper
    uint64_t queue_polls = 0;    // queue_work.poll invocations by this shard
    uint64_t queue_packets = 0;  // packets those invocations drained
  };
  // Safe while running for `wakeups`; read the rest after Stop() (or accept
  // a torn-but-monotonic snapshot).
  ShardLoopStats shard_loop_stats(size_t shard) const;

  // Counters specific to the isolated spin loop (all zero for kNormal
  // shards). Quiesced reads only, like the histograms below.
  struct IsolatedShardStats {
    uint64_t spin_checks = 0;   // iterations of the spin loop
    uint64_t steal_events = 0;  // checks whose leading gap exceeded the
                                // steal threshold (preemption detected)
    uint64_t stolen_ticks = 0;  // total ticks inside detected steal gaps
    uint64_t max_gap_ticks = 0; // largest check-to-check clock gap seen
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
  // handler). Raw is the shard facility's Stats::lateness_ticks. On a normal
  // shard clean is that same histogram; on an isolated shard it excludes
  // steal-adjacent dispatches (see header comment). Written by the shard's
  // loop thread: read after Stop(), or from the loop thread itself
  // (shard_tick hooks).
  const LatencyHistogram& shard_lateness_raw(size_t shard) const;
  const LatencyHistogram& shard_lateness_clean(size_t shard) const;

  // The effective profile of a shard (resolved against the default).
  const ShardProfileConfig& shard_profile(size_t shard) const {
    return profiles_[shard];
  }

 private:
  // Dispatches buffered per check awaiting the trailing-gap steal verdict
  // (see LatenessProbe). Far above any sane dispatch batch for an
  // SLO-carrying shard; overflow falls back to raw-only recording.
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
    // Lateness-probe state (loop-thread only, set up before Start()).
    bool isolated = false;
    bool check_tainted = false;  // current check's leading gap was a steal
    uint64_t slo_budget = 0;
    size_t pending_clean_count = 0;
    std::array<uint64_t, kCleanBufferCap> pending_clean{};
    LatencyHistogram lateness_clean;  // isolated shards only
    std::thread thread;
  };

  static void WakeShard(void* ctx, size_t shard);
  // Facility lateness probe, installed on isolated and SLO-carrying shard
  // facilities with the shard's ShardLoop as context; runs inside
  // DispatchFired on the loop thread (or whichever thread drives a quiesced
  // facility in tests).
  static void LatenessProbe(void* ctx, const SoftTimerFacility::FireInfo& info);
  void RunShard(size_t shard);
  void RunShardIsolated(size_t shard);
  // Median clock gap of a short spin burst; the isolated loop's calibration.
  uint64_t CalibrateSpinGap() const;
  // Flush (clean trailing gap) or suppress (steal trailing gap) the
  // dispatches buffered during the previous isolated check.
  void ResolvePendingClean(ShardLoop& loop, bool trailing_steal);
  // Backup-bounded sleep for `shard`; returns handlers fired by the check
  // performed on wakeup.
  size_t SleepAndDispatch(size_t shard);

  Config config_;
  MonotonicClockSource clock_;
  std::vector<ShardProfileConfig> profiles_;  // resolved, num_shards entries
  std::unique_ptr<ShardedSoftTimerRuntime> runtime_;
  std::vector<std::unique_ptr<ShardLoop>> loops_;
  std::atomic<bool> stop_{false};
  bool running_ = false;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_RT_SHARDED_RT_HOST_H_
