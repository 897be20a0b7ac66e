#include "src/rt/sharded_rt_host.h"

#include <algorithm>
#include <cassert>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "src/core/cpu_relax.h"

namespace softtimer {

ShardedRtHost::ShardedRtHost(Config config)
    : config_(std::move(config)),
      clock_(config_.measure_hz),
      spin_horizon_ticks_(kShardSpinHorizonNs * config_.measure_hz /
                          1'000'000'000),
      notify_horizon_ticks_(kShardNotifyHorizonNs * config_.measure_hz /
                            1'000'000'000),
      late_hold_ticks_(kShardLateWakeHoldNs * config_.measure_hz /
                       1'000'000'000) {
  assert(config_.num_shards >= 1);
  assert(config_.shard_profiles.empty() ||
         config_.shard_profiles.size() == config_.num_shards);
  ShardedSoftTimerRuntime::Config rc;
  rc.num_shards = config_.num_shards;
  rc.facility.interrupt_clock_hz = config_.interrupt_clock_hz;
  runtime_ = std::make_unique<ShardedSoftTimerRuntime>(&clock_, rc);
  runtime_->set_wake_hook(&ShardedRtHost::WakeShard, this);
  loops_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    loops_.push_back(std::make_unique<ShardLoop>());
    ShardLoop& loop = *loops_.back();
    if (!config_.shard_profiles.empty()) {
      loop.isolated = config_.shard_profiles[i].isolated;
    }
    // A sleeping shard needs no probe: the facility's own lateness
    // histogram is both its raw and its clean record.
    if (loop.isolated) {
      runtime_->shard_facility(i).set_dispatch_hook(
          &ShardedRtHost::LatenessProbe, &loop);
    }
  }
}

ShardedRtHost::~ShardedRtHost() { Stop(); }

void ShardedRtHost::Start() {
  if (running_) {
    return;
  }
  // ordering: loop threads are created after this store; the thread launch
  // itself synchronizes.
  stop_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { RunShard(i); });
  }
  running_ = true;
}

void ShardedRtHost::Stop() {
  if (!running_) {
    return;
  }
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& loop : loops_) {
    // Pairs with the sleeper's sleeping-store / stop-check sequence: taking
    // the mutex serializes with the window between its recheck and its wait.
    std::lock_guard<std::mutex> lock(loop->m);
    loop->cv.notify_one();
  }
  for (auto& loop : loops_) {
    loop->thread.join();
  }
  running_ = false;
}

void ShardedRtHost::WakeShard(void* ctx, size_t shard, uint64_t due_tick,
                              uint64_t enqueue_tick) {
  auto* host = static_cast<ShardedRtHost*>(ctx);
  ShardLoop& loop = *host->loops_[shard];
  if (host->PokeMatters(loop, due_tick, enqueue_tick)) {
    std::lock_guard<std::mutex> lock(loop.m);
    loop.cv.notify_one();
    // ordering: stats counter; read quiesced or tolerating staleness.
    loop.wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

// SOFTTIMER_HOT
bool ShardedRtHost::PokeMatters(ShardLoop& loop, uint64_t due_tick,
                                uint64_t enqueue_tick) {
  // Fence + planned-tick read (src/rt/eventcount.h): if the sleeper's
  // pending-flag recheck missed our publish, the gate's fence orders our
  // load after its store, so we read the tick it blocks on.
  uint64_t planned = loop.gate.PlannedWake();
  if (planned == 0) {
    return false;  // awake: its next check sees the pending flag
  }
  // A schedule or re-arm carries its enqueue tick as "now"; only a cancel,
  // which read no clock, reads one here, and only against a sleeper.
  uint64_t now = due_tick == ShardedSoftTimerRuntime::kNeverDue
                     ? clock_.NowTicks()
                     : enqueue_tick;
  if (SleeperGate<>::WakeMatters(planned, due_tick, now,
                                 notify_horizon_ticks_)) {
    return true;
  }
  // ordering: stats counter; read quiesced or tolerating staleness.
  loop.wakeups_suppressed.fetch_add(1, std::memory_order_relaxed);
  return false;
}

bool ShardedRtHost::SleepAndDispatch(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  SoftTimerFacility& facility = runtime_->shard_facility(shard);
  uint64_t now = clock_.NowTicks();
  uint64_t backup_ticks = facility.ticks_per_backup_interval();
  uint64_t next_deadline = facility.NextDeadlineTick().value_or(
      ShardedSoftTimerRuntime::kNeverDue);
  // No due queue may wait out a full backup period just because every
  // shard parked: the earliest queue deadline bounds the sleep of one
  // parked shard exactly like its own next soft-event deadline does. Each
  // releasing shard folds its published deadline into the gate BEFORE it
  // can reach this sleep, so the last shard to park always sees the
  // earliest one.
  uint64_t queue_due = config_.queue_work.next_due
                           ? config_.queue_work.next_due()
                           : ShardedSoftTimerRuntime::kNeverDue;
  bool hold = now < loop.unplanned_until;
  WaitPlan plan = PlanWait(now, next_deadline, backup_ticks, queue_due,
                           spin_horizon_ticks_, hold);
  if (plan.spin) {
    // Spin, then check as a wake would.
    ++loop.stats.spins;
    SpinUntil(shard, plan.wake_tick);
    runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
    return false;
  }
  uint64_t wake_tick = plan.wake_tick;
  bool backup_bound = plan.backup_bound;
  bool slept = false;
  {
    std::unique_lock<std::mutex> lock(loop.m);
    // The gate carries the tick this wait ends at, or a later one: a wake
    // tick is never 0, since a sleep ends past now + the spin horizon or
    // one backup period. During a late-wake hold it carries no plan, so no
    // poke is skipped.
    assert(wake_tick != 0);
    loop.gate.PrepareSleep(plan.published_tick);
    // One parked shard wakes for the queue deadline. The own plan went out
    // first, through the gate's fence, so of two shards parking at once the
    // later one reads the other's plan and takes the deadline itself
    // (src/rt/eventcount.h).
    bool queue_bound = plan.queue_first && !SiblingCovers(shard, queue_due);
    if (queue_bound) {
      wake_tick = queue_due;
      backup_bound = false;
      if (!hold) {
        loop.gate.Lower(queue_due);
      }
    }
    // Recheck under the gate: a command published before the gate's fence
    // is visible here; one published after it reads the planned tick and
    // notifies when it falls due before that tick (blocking on the mutex
    // until our wait releases it).
    if (!runtime_->remote_pending(shard) &&
        // ordering: stop is rechecked every loop iteration and Stop() takes
        // the mutex before notifying, so a relaxed read here only risks one
        // bounded sleep, never a missed shutdown.
        !stop_.load(std::memory_order_relaxed)) {
      ++loop.stats.sleeps;
      loop.stats.queue_bound_sleeps += queue_bound;
      slept = true;
      loop.cv.wait_for(lock, clock_.UntilTick(wake_tick));
    }
    loop.gate.FinishSleep();
  }
  uint64_t woke = clock_.NowTicks();
  WakeVerdict verdict = JudgeWait(woke, wake_tick, backup_ticks, backup_bound);
  if (verdict.late) {
    // The OS ran the thread more than a backup period past its plan. For
    // the hold, publish no plan: a skipped poke would wait on a wake that
    // may come this late again.
    ++loop.stats.late_wakes;
    loop.unplanned_until = woke + late_hold_ticks_;
  }
  size_t fired = 0;
  if (verdict.source == TriggerSource::kBackupIntr) {
    ++loop.stats.backup_checks;
    fired = runtime_->OnBackupInterrupt(shard);
  } else {
    fired = runtime_->OnTriggerState(shard, verdict.source);
  }
  return slept && fired == 0;
}

bool ShardedRtHost::SiblingCovers(size_t shard, uint64_t due_tick) const {
  for (size_t i = 0; i < loops_.size(); ++i) {
    if (i != shard &&
        SleeperGate<>::Covers(loops_[i]->gate.SiblingPlan(), due_tick)) {
      return true;
    }
  }
  return false;
}

// SOFTTIMER_HOT
void ShardedRtHost::SpinUntil(size_t shard, uint64_t wake_tick) {
  // The gate stays down, so a producer finds no sleeper to notify; the
  // pending flag ends the spin instead, and the check after it drains.
  // ordering: relaxed stop, as in RunShard: Stop() joins the thread, so a
  // stale read costs at most the rest of this spin.
  while (!runtime_->remote_pending(shard) &&
         !stop_.load(std::memory_order_relaxed) &&
         clock_.NowTicks() < wake_tick) {
    CpuRelax();
  }
}

void ShardedRtHost::RunShard(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  if (loop.isolated) {
    // Calibrate before the set-up, so a timer the set-up schedules (e.g. a
    // bench's self-re-arm chain) is not already overdue by the calibration
    // burst when the first check runs.
    CalibrateSpin(shard);
  } else {
#if defined(__linux__)
    // Timer slack is per thread, so set it here, on the loop thread itself.
    // A failure leaves the OS default: sleeps stay bounded, only less
    // precise.
    prctl(PR_SET_TIMERSLACK, kShardTimerSlackNs, 0, 0, 0);
#endif
  }
  if (config_.shard_setup) {
    config_.shard_setup(shard);
  }
  if (loop.isolated) {
    // The first spin gap and the first backup period count from here, so
    // neither includes the set-up.
    loop.check_tainted = false;
    loop.prev_spin_tick = clock_.NowTicks();
    loop.backup_deadline =
        loop.prev_spin_tick +
        runtime_->shard_facility(shard).ticks_per_backup_interval();
  }
  // Whether the last sleep's check fired nothing: the wake is wasted when
  // the queue poll after it drains nothing too.
  bool empty_wake = false;
  // ordering: both stop checks are relaxed - the loop re-polls continuously
  // and the sleep path rechecks under the eventcount, so staleness costs at
  // most one extra iteration.
  while (!stop_.load(std::memory_order_relaxed)) {
    ++loop.stats.polls;
    runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
    if (config_.shard_tick) {
      config_.shard_tick(shard);
    }
    size_t drained = 0;
    if (config_.queue_work.poll) {
      // Serve at most one claimed queue per iteration, interleaved with the
      // shard's own trigger checks; as long as queues keep yielding packets
      // the shard stays busy (the `continue` skips the idle step), which is
      // how an idle shard absorbs queues from a busy one - it simply keeps
      // winning claims the busy shard has no spare iterations for.
      drained = config_.queue_work.poll(shard, clock_.NowTicks());
      ++loop.stats.queue_polls;
      loop.stats.queue_packets += drained;
    }
    loop.stats.wasted_wakes += empty_wake && drained == 0;
    empty_wake = false;
    if (drained > 0) {
      continue;
    }
    // ordering: same relaxed-stop contract as the loop condition above.
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    if (loop.isolated) {
      SpinStep(shard);
    } else {
      empty_wake = SleepAndDispatch(shard);
    }
  }
  // No spin step will ever vouch for the last check's dispatches; suppress
  // them (they are in raw) rather than guess. A sleeping shard buffers none.
  ResolvePendingClean(loop, /*trailing_steal=*/true);
}

void ShardedRtHost::CalibrateSpin(size_t shard) {
  // CHRONOS-style cost model: the arm-to-fire overhead of the software
  // backup is one spin check gap, so measure its median over a short spin
  // burst (median rather than mean, so a hypervisor steal landing inside the
  // burst cannot poison the calibration) and derive the steal threshold and
  // the compensation from it. The threshold is a generous multiple of the
  // median gap - far above scheduling jitter, far below any real preemption
  // - and the compensation is at least the threshold, so a backup fired
  // late WITHOUT a detected steal would contradict the threshold:
  // backup_true_late is structurally zero.
  constexpr size_t kSamples = 1024;
  std::array<uint64_t, kSamples> gaps;
  uint64_t prev = clock_.NowTicks();
  for (size_t i = 0; i < kSamples; ++i) {
    CpuRelax();
    uint64_t now = clock_.NowTicks();
    gaps[i] = now - prev;
    prev = now;
  }
  std::nth_element(gaps.begin(), gaps.begin() + kSamples / 2, gaps.end());
  uint64_t median_gap = gaps[kSamples / 2];
  uint64_t steal_threshold =
      std::max<uint64_t>(32 * std::max<uint64_t>(median_gap, 1), 4);
  // A compensation rivaling the period would make the backup fire
  // constantly; clamp and let steal classification absorb the rest.
  uint64_t compensation = std::min(
      std::max<uint64_t>(steal_threshold, 16),
      runtime_->shard_facility(shard).ticks_per_backup_interval() / 2);
  IsolatedShardStats& iso = loops_[shard]->iso;
  iso.calibrated_gap_ticks = median_gap;
  iso.steal_threshold_ticks = steal_threshold;
  iso.compensation_ticks = compensation;
}

// SOFTTIMER_HOT
void ShardedRtHost::SpinStep(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  IsolatedShardStats& iso = loop.iso;
  uint64_t now = clock_.NowTicks();
  uint64_t gap = now - loop.prev_spin_tick;
  loop.prev_spin_tick = now;
  bool steal = gap > iso.steal_threshold_ticks;
  // The dispatches since the previous spin step were waiting on this gap's
  // verdict; the ones until the next step are tainted by it.
  ResolvePendingClean(loop, steal);
  loop.check_tainted = steal;
  if (steal) {
    ++iso.steal_events;
    iso.stolen_ticks += gap;
  }
  if (gap > iso.max_gap_ticks) {
    iso.max_gap_ticks = gap;
  }
  // The software backup, armed `compensation` ticks before its nominal
  // deadline D.
  if (now >= loop.backup_deadline - iso.compensation_ticks) {
    ++loop.stats.backup_checks;
    if (now <= loop.backup_deadline) {
      ++iso.backup_on_time;
    } else if (steal) {
      ++iso.backup_steal_late;
    } else {
      ++iso.backup_true_late;
    }
    runtime_->OnBackupInterrupt(shard);
    // Re-arm one period out from the fire (one-shot re-arm, so a long
    // steal yields one late backup, not a burst of catch-up fires).
    loop.backup_deadline =
        now + runtime_->shard_facility(shard).ticks_per_backup_interval();
  }
  CpuRelax();
}

// SOFTTIMER_HOT
uint64_t ShardedRtHost::LatenessProbe(void* ctx,
                                      const SoftTimerFacility::FireInfo& info) {
  auto* loop = static_cast<ShardLoop*>(ctx);
  if (loop->check_tainted) {
    // Leading gap was a steal: this dispatch's fired_tick is preemption
    // noise, keep it out of the clean histogram entirely.
    ++loop->iso.steal_suppressed_dispatches;
  } else if (loop->pending_clean_count < kCleanBufferCap) {
    // Clean so far, but a steal could still have landed between the last
    // spin step's clock read and the facility's dispatch read. Buffer until
    // the NEXT spin step vouches for the trailing gap (sandwich rule: a
    // dispatch is clean only when the gaps on both sides of its check are
    // clean).
    loop->pending_clean[loop->pending_clean_count++] = info.lateness_ticks();
  } else {
    ++loop->iso.steal_suppressed_dispatches;  // overflow: raw-only
  }
  return 0;  // the host charges no per-dispatch cost
}

void ShardedRtHost::ResolvePendingClean(ShardLoop& loop, bool trailing_steal) {
  if (loop.pending_clean_count == 0) {
    return;
  }
  if (trailing_steal) {
    loop.iso.steal_suppressed_dispatches += loop.pending_clean_count;
  } else {
    for (size_t i = 0; i < loop.pending_clean_count; ++i) {
      loop.lateness_clean.Record(loop.pending_clean[i]);
    }
  }
  loop.pending_clean_count = 0;
}

ShardedRtHost::ShardLoopStats ShardedRtHost::shard_loop_stats(
    size_t shard) const {
  ShardLoopStats s = loops_[shard]->stats;
  // ordering: stats counters; monotonic, staleness acceptable by contract.
  s.wakeups = loops_[shard]->wakeups.load(std::memory_order_relaxed);
  // ordering: as above.
  s.wakeups_suppressed =
      loops_[shard]->wakeups_suppressed.load(std::memory_order_relaxed);
  return s;
}

ShardedRtHost::IsolatedShardStats ShardedRtHost::isolated_shard_stats(
    size_t shard) const {
  return loops_[shard]->iso;
}

const LatencyHistogram& ShardedRtHost::shard_lateness_raw(size_t shard) const {
  return runtime_->shard_facility(shard).stats().lateness_ticks;
}

const LatencyHistogram& ShardedRtHost::shard_lateness_clean(
    size_t shard) const {
  const ShardLoop& loop = *loops_[shard];
  return loop.isolated ? loop.lateness_clean : shard_lateness_raw(shard);
}

}  // namespace softtimer
