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
      loop.slo_budget = config_.shard_profiles[i].slo_lateness_ticks;
    }
    // A plain sleeping shard needs no probe: the facility's own lateness
    // histogram is both its raw and its clean record.
    if (loop.isolated || loop.slo_budget != 0) {
      runtime_->shard_facility(i).set_lateness_probe(
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

void ShardedRtHost::WakeShard(void* ctx, size_t shard) {
  auto* host = static_cast<ShardedRtHost*>(ctx);
  ShardLoop& loop = *host->loops_[shard];
  // Fence + sleeping-flag read (src/rt/eventcount.h): if the sleeper's
  // pending-flag recheck missed our publish, the gate's fence orders our
  // sleeping-load after its sleeping-store, so we observe it awake-or-
  // committed and deliver the notify.
  if (loop.gate.SleeperVisible()) {
    std::lock_guard<std::mutex> lock(loop.m);
    loop.cv.notify_one();
    // ordering: stats counter; read quiesced or tolerating staleness.
    loop.wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

size_t ShardedRtHost::SleepAndDispatch(size_t shard) {
  ShardLoop& loop = *loops_[shard];
  SoftTimerFacility& facility = runtime_->shard_facility(shard);
  uint64_t now = clock_.NowTicks();
  uint64_t wake_tick = now + facility.ticks_per_backup_interval();
  bool backup_bound = true;
  std::optional<uint64_t> deadline = facility.NextDeadlineTick();
  if (deadline && *deadline < wake_tick) {
    wake_tick = *deadline;
    backup_bound = false;
  }
  if (config_.queue_work.next_due) {
    // No due queue may wait out a full backup period just because every
    // shard parked: the earliest queue deadline bounds the sleep exactly
    // like the shard's own next soft-event deadline does. Each releasing
    // shard folds its published deadline into the gate BEFORE it can reach
    // this sleep, so the last shard to park always sees the earliest one.
    uint64_t queue_due = config_.queue_work.next_due();
    if (queue_due < wake_tick) {
      wake_tick = queue_due;
      backup_bound = false;
    }
  }
  if (!backup_bound && wake_tick <= now + spin_horizon_ticks_) {
    // Nearer than a sleep/wake costs (a deadline already passed included):
    // spin, then check as a wake would.
    ++loop.stats.spins;
    SpinUntil(shard, wake_tick);
    return runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
  }
  {
    std::unique_lock<std::mutex> lock(loop.m);
    loop.gate.PrepareSleep();
    // Recheck under the flag: a command published before the gate's fence is
    // visible here; one published after it sees the sleeper flag and
    // notifies (blocking on the mutex until our wait releases it).
    if (!runtime_->remote_pending(shard) &&
        // ordering: stop is rechecked every loop iteration and Stop() takes
        // the mutex before notifying, so a relaxed read here only risks one
        // bounded sleep, never a missed shutdown.
        !stop_.load(std::memory_order_relaxed)) {
      ++loop.stats.sleeps;
      loop.cv.wait_for(lock, clock_.UntilTick(wake_tick));
    }
    loop.gate.FinishSleep();
  }
  if (backup_bound && clock_.NowTicks() >= wake_tick) {
    ++loop.stats.backup_checks;
    return runtime_->OnBackupInterrupt(shard);
  }
  return runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
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
  // ordering: both stop checks are relaxed - the loop re-polls continuously
  // and the sleep path rechecks under the eventcount, so staleness costs at
  // most one extra iteration.
  while (!stop_.load(std::memory_order_relaxed)) {
    ++loop.stats.polls;
    runtime_->OnTriggerState(shard, TriggerSource::kIdleLoop);
    if (config_.shard_tick) {
      config_.shard_tick(shard);
    }
    if (config_.queue_work.poll) {
      // Serve at most one claimed queue per iteration, interleaved with the
      // shard's own trigger checks; as long as queues keep yielding packets
      // the shard stays busy (the `continue` skips the idle step), which is
      // how an idle shard absorbs queues from a busy one - it simply keeps
      // winning claims the busy shard has no spare iterations for.
      size_t drained = config_.queue_work.poll(shard, clock_.NowTicks());
      ++loop.stats.queue_polls;
      loop.stats.queue_packets += drained;
      if (drained > 0) {
        continue;
      }
    }
    // ordering: same relaxed-stop contract as the loop condition above.
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    if (loop.isolated) {
      SpinStep(shard);
    } else {
      SleepAndDispatch(shard);
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
    ++iso.backup_fires;
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
void ShardedRtHost::LatenessProbe(void* ctx,
                                  const SoftTimerFacility::FireInfo& info) {
  auto* loop = static_cast<ShardLoop*>(ctx);
  uint64_t lateness = info.lateness_ticks();
  if (!loop->isolated) {
    // Sleeping shard with an SLO: no steal detection, every dispatch is
    // clean and already in the facility's histogram.
    if (lateness > loop->slo_budget) {
      ++loop->iso.slo_violations;
    }
    return;
  }
  if (loop->check_tainted) {
    // Leading gap was a steal: this dispatch's fired_tick is preemption
    // noise, keep it out of the clean histogram entirely.
    ++loop->iso.steal_suppressed_dispatches;
    return;
  }
  // Clean so far, but a steal could still have landed between the last
  // spin step's clock read and the facility's dispatch read. Buffer until
  // the NEXT spin step vouches for the trailing gap (sandwich rule: a
  // dispatch is clean only when the gaps on both sides of its check are
  // clean).
  if (loop->pending_clean_count < kCleanBufferCap) {
    loop->pending_clean[loop->pending_clean_count++] = lateness;
  } else {
    ++loop->iso.steal_suppressed_dispatches;  // overflow: raw-only
  }
}

void ShardedRtHost::ResolvePendingClean(ShardLoop& loop, bool trailing_steal) {
  if (loop.pending_clean_count == 0) {
    return;
  }
  if (trailing_steal) {
    loop.iso.steal_suppressed_dispatches += loop.pending_clean_count;
  } else {
    for (size_t i = 0; i < loop.pending_clean_count; ++i) {
      uint64_t lateness = loop.pending_clean[i];
      loop.lateness_clean.Record(lateness);
      if (loop.slo_budget != 0 && lateness > loop.slo_budget) {
        ++loop.iso.slo_violations;
      }
    }
  }
  loop.pending_clean_count = 0;
}

ShardedRtHost::ShardLoopStats ShardedRtHost::shard_loop_stats(
    size_t shard) const {
  ShardLoopStats s = loops_[shard]->stats;
  // ordering: stats counter; monotonic, staleness acceptable by contract.
  s.wakeups = loops_[shard]->wakeups.load(std::memory_order_relaxed);
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
