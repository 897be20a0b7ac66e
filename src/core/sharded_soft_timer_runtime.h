// ShardedSoftTimerRuntime - N per-core soft-timer facilities plus lock-free
// cross-core scheduling.
//
// The paper's facility is per-CPU by construction: trigger states fire on
// the core that is already executing, so an SMP deployment is a set of
// independent per-core facilities plus a way to schedule/cancel events on a
// remote core. This runtime owns `num_shards` SoftTimerFacility shards (each
// keeping the single-core zero-allocation hot path and `next_deadline_` fast
// gate untouched) and, for the cross-core part, one lock-free SPSC command
// channel per (registered producer thread, target shard) pair, created when
// the producer registers.
//
// Threading model:
//  * Each shard has exactly one OWNER thread: the only thread that may call
//    OnTriggerState / OnBackupInterrupt / ScheduleOnShard / CancelOnShard /
//    DrainRemote for that shard.
//  * Any other thread first calls RegisterProducer() once, then uses its
//    ProducerToken with ScheduleCrossCore / CancelCrossCore. Commands are
//    drained at the target shard's trigger states, so remote work always
//    executes on the owning core - the slab, queue, and facility state stay
//    single-threaded and the paper's hot path stays intact. A drain sweeps
//    only the channels of producers registered so far, so a runtime whose
//    cross-core API goes unused holds no channel at all.
//
// Steady-state costs:
//  * Local nothing-due trigger check: one relaxed load of the shard's
//    remote-pending flag + the facility fast gate (clock read + compare).
//    No mutex, no CAS, no fence on this path.
//  * Cross-core schedule: one SPSC push (slot move + release store) plus a
//    seq_cst store of the pending flag (paired with a fence in the drain
//    sweep so a publish racing a drain is never stranded). Zero heap
//    allocations when the handler fits std::function's inline buffer, like
//    the local path.
//  * A cross-core command always lands. A push that finds its ring full
//    (the owner has fallen a whole ring behind, e.g. during a host stall)
//    doubles the ring on a cold path instead of refusing: one allocation,
//    counted in the token's ring_full_rejects. A stall costs memory, never
//    a timer, and the paper's bound governs when a timer fires, not whether.
//
// Ids: every id this runtime returns carries its shard in the top byte (see
// timer_slab.h). Locally-scheduled events return the facility's slab id with
// the shard ORed in; cross-core schedules return a REMOTE id (remote bit set,
// {producer, sequence} in the low bits) that the target shard maps to the
// eventual slab id in a per-shard open-addressing table (RemoteIdMap,
// allocation-free in steady state). The facility's cookie/retire hook erases
// the table entry when the event fires or is cancelled (through any cancel
// path, including a direct facility CancelSoftEvent), so the table tracks
// exactly the live remote events. A re-arm or a policy deferral keeps the
// slab id, so neither kind of id ever changes while its event lives.
//
// Cross-core cancel semantics: a cancel command is applied when it drains.
// Commands from one producer drain in FIFO order, so a producer can always
// cancel what it scheduled; a cancel racing ahead of a *different*
// producer's schedule command is a no-op (the event fires). Results are
// reported through ShardStats, not a return value - the operation is
// asynchronous by nature.

#ifndef SOFTTIMER_SRC_CORE_SHARDED_SOFT_TIMER_RUNTIME_H_
#define SOFTTIMER_SRC_CORE_SHARDED_SOFT_TIMER_RUNTIME_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/core/remote_pending.h"
#include "src/core/soft_timer_facility.h"
#include "src/core/spsc_ring.h"
#include "src/core/trigger.h"

namespace softtimer {

// Open-addressing hash map from remote id -> local slab id, owned by one
// shard (single-threaded). Linear probing with backward-shift deletion; the
// table only allocates when it grows past its high-water mark, so
// steady-state insert/erase cycles are allocation-free. Key 0 is reserved
// (remote ids always have the remote bit set, so no real key is 0).
class RemoteIdMap {
 public:
  void Insert(uint64_t key, uint64_t value);
  // Returns the mapped value or 0 when absent.
  uint64_t Find(uint64_t key) const;
  bool Erase(uint64_t key);
  size_t size() const { return size_; }
  size_t capacity() const { return table_.size(); }

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t value = 0;
  };

  static size_t Mix(uint64_t key) {
    // splitmix64 finalizer: remote ids differ mostly in low sequence bits.
    key += 0x9e3779b97f4a7c15ull;
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ull;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(key ^ (key >> 31));
  }
  size_t SlotFor(uint64_t key) const { return Mix(key) & (table_.size() - 1); }
  // Probe-and-place without the load-factor check; shared by Insert and the
  // rehash loop in Grow so the two never recurse into each other.
  void InsertNoGrow(uint64_t key, uint64_t value);
  void Grow();

  std::vector<Entry> table_;
  size_t size_ = 0;
};

class ShardedSoftTimerRuntime {
 public:
  struct Config {
    // Per-core facility shards; at most kTimerIdMaxShards (the shard byte).
    size_t num_shards = 1;
    // Per-shard facility configuration, degradation policy included (a
    // deferred event keeps its id, so remote ids stay valid across it).
    SoftTimerFacility::Config facility;
  };

  // Initial capacity of each (producer, shard) command ring; a ring that
  // fills doubles.
  static constexpr size_t kInitialRingCapacity = 1024;
  // Producers that may register over the runtime's lifetime: the remote
  // id's producer field is 8 bits wide.
  static constexpr size_t kMaxProducers = 256;

  ShardedSoftTimerRuntime(const ClockSource* clock, Config config);
  ~ShardedSoftTimerRuntime();

  ShardedSoftTimerRuntime(const ShardedSoftTimerRuntime&) = delete;
  ShardedSoftTimerRuntime& operator=(const ShardedSoftTimerRuntime&) = delete;

  size_t num_shards() const { return shards_.size(); }
  const ClockSource& clock() const { return *clock_; }

  // The shard's facility, for owner-thread use (introspection, observers,
  // direct scheduling; prefer ScheduleOnShard so ids carry the shard byte).
  SoftTimerFacility& shard_facility(size_t shard) {
    return *shards_[shard]->facility;
  }
  const SoftTimerFacility& shard_facility(size_t shard) const {
    return *shards_[shard]->facility;
  }

  // --- Producer registration -------------------------------------------
  class ProducerToken {
   public:
    ProducerToken() = default;
    bool valid() const { return index_ != kInvalid; }
    size_t index() const { return index_; }
    // Cross-core pushes that found the target ring full and doubled it
    // (one allocation each). Named for the refusals it counted before full
    // rings grew.
    uint64_t ring_full_rejects() const { return ring_growths_; }

   private:
    friend class ShardedSoftTimerRuntime;
    static constexpr size_t kInvalid = static_cast<size_t>(-1);
    size_t index_ = kInvalid;
    uint64_t next_seq_ = 0;
    uint64_t ring_growths_ = 0;
  };

  // Registers the calling thread as a command producer and creates its
  // command channel on every shard. Thread-safe, and safe while the shards
  // run. Returns an invalid token when kMaxProducers are already
  // registered.
  // A shard owner thread that wants to schedule onto *other* shards
  // registers too; its own shard stays reachable through the local calls.
  ProducerToken RegisterProducer();

  // --- Owner-thread API (one thread per shard) --------------------------
  // Local schedule on the calling owner's shard: the facility fast path,
  // plus the shard byte ORed into the returned id.
  SoftEventId ScheduleOnShard(size_t shard, uint64_t delta_ticks,
                              SoftTimerFacility::Handler handler,
                              uint32_t handler_tag = 0);

  // Cancels an id (local or remote) that targets `shard`. Returns false for
  // ids of other shards (use CancelCrossCore), stale ids, or remote ids
  // whose schedule command has not drained yet.
  bool CancelOnShard(size_t shard, SoftEventId id);

  // Re-arms an id (local or remote) that targets `shard` to fire
  // `delta_ticks` from now, preserving its handler, tag and id - the
  // facility's RescheduleSoftEvent on the id the runtime resolves. False
  // when the event already fired, was cancelled, or targets another shard.
  bool RescheduleOnShard(size_t shard, SoftEventId id, uint64_t delta_ticks);

  // The shard's trigger-state check: drains remote commands when the
  // pending flag says any exist, then runs the facility check. When nothing
  // is due and no commands are pending this is one relaxed load + clock
  // read + compare.
  // SOFTTIMER_HOT
  size_t OnTriggerState(size_t shard, TriggerSource source) {
    Shard& s = *shards_[shard];
    if (s.remote_pending.AnyPendingRelaxed()) {
      DrainRemote(shard);
    }
    return s.facility->OnTriggerState(source);
  }

  size_t OnBackupInterrupt(size_t shard) {
    return OnTriggerState(shard, TriggerSource::kBackupIntr);
  }

  // Applies every queued command for `shard` now; returns commands applied.
  size_t DrainRemote(size_t shard);

  // --- Producer API (any registered thread) -----------------------------
  // Schedules `handler` on `shard` through the command ring and returns the
  // remote id. The id is invalid only for an invalid token or shard: a full
  // ring grows instead of refusing. The delay counts from now (enqueue
  // time): the drain re-anchors the deadline at enqueue_tick + delta, so
  // ring residency does not stretch T.
  SoftEventId ScheduleCrossCore(ProducerToken& token, size_t shard,
                                uint64_t delta_ticks,
                                SoftTimerFacility::Handler handler,
                                uint32_t handler_tag = 0);

  // Forwards to ScheduleCrossCore. Its retry loop went when full rings
  // began to grow; the name stays for existing callers.
  SoftEventId ScheduleCrossCoreWithRetry(ProducerToken& token, size_t shard,
                                         uint64_t delta_ticks,
                                         SoftTimerFacility::Handler handler,
                                         uint32_t handler_tag = 0) {
    return ScheduleCrossCore(token, shard, delta_ticks, std::move(handler),
                             handler_tag);
  }

  // Enqueues a cancel for an id returned by either schedule path. Returns
  // true when the command was enqueued (always, for a valid token and id;
  // not when the cancel lands - see the header comment for the async
  // semantics).
  bool CancelCrossCore(ProducerToken& token, SoftEventId id);

  // Enqueues a re-arm for an id returned by either schedule path (local or
  // remote): when the command drains, the target shard reschedules the
  // event `delta_ticks` from the enqueue tick, and the same id keeps naming
  // it afterwards. Returns true when the command was enqueued (always, for
  // a valid token and id), with the usual async semantics: a re-arm racing
  // the event's own dispatch is a no-op counted in remote_reschedule_misses.
  bool RescheduleCrossCore(ProducerToken& token, SoftEventId id,
                           uint64_t delta_ticks);

  // --- Wakeup integration ----------------------------------------------
  // Invoked (from the producer thread) after a command is published to a
  // shard, so a host can wake that shard's sleeping owner. Raw pointer +
  // context: installing and firing it never allocates.
  using WakeFn = void (*)(void* ctx, size_t shard);
  void set_wake_hook(WakeFn fn, void* ctx) {
    wake_fn_ = fn;
    wake_ctx_ = ctx;
  }

  // True when `shard` has undrained commands (relaxed; owner-thread hint).
  bool remote_pending(size_t shard) const {
    return shards_[shard]->remote_pending.AnyPendingRelaxed();
  }

  // --- Maintenance / introspection --------------------------------------
  // Trims the shard's slab storage (owner thread). Returns chunks released.
  size_t TrimShardStorage(size_t shard) {
    return shards_[shard]->facility->TrimSlabStorage();
  }

  struct ShardStats {
    uint64_t drains = 0;             // drain sweeps that applied >= 1 command
    uint64_t remote_scheduled = 0;   // schedule commands applied
    uint64_t remote_cancelled = 0;   // cancel commands that hit a live event
    uint64_t remote_cancel_misses = 0;
    uint64_t remote_rescheduled = 0;  // update commands that re-armed an event
    uint64_t remote_reschedule_misses = 0;
    size_t remote_live = 0;          // live entries in the remote-id table
  };
  // Owner-thread (or quiesced) reads only.
  ShardStats shard_stats(size_t shard) const {
    ShardStats s = shards_[shard]->stats;
    s.remote_live = shards_[shard]->remote_ids.size();
    return s;
  }

  // Facility + runtime counters summed across shards, with the per-source
  // dispatch attribution (TriggerSource) preserved. Quiesced reads only.
  struct RuntimeStats {
    uint64_t checks = 0;
    uint64_t dispatches = 0;
    uint64_t scheduled = 0;
    uint64_t cancelled = 0;
    uint64_t rescheduled = 0;
    std::array<uint64_t, kNumTriggerSources> dispatches_by_source{};
    uint64_t remote_scheduled = 0;
    uint64_t remote_cancelled = 0;
    uint64_t remote_rescheduled = 0;
    uint32_t slab_capacity = 0;
    uint32_t slab_live = 0;
  };
  RuntimeStats AggregateStats() const;

 private:
  struct Command {
    enum class Op : uint8_t { kNone, kSchedule, kCancel, kUpdate };
    Op op = Op::kNone;
    uint32_t tag = 0;
    uint64_t id = 0;           // remote id (schedule) or cancel/update target
    uint64_t delta_ticks = 0;
    uint64_t enqueue_tick = 0;
    SoftTimerFacility::Handler handler;
  };

  // Everything one shard's owner thread touches, cache-line separated from
  // its neighbours.
  struct alignas(kCacheLineBytes) Shard {
    std::unique_ptr<SoftTimerFacility> facility;
    RemoteIdMap remote_ids;
    ShardStats stats;
    // Published (seq_cst) by producers after pushing a command; cleared +
    // fenced by the owner before a drain sweep so the clear cannot overwrite
    // a racing publish whose command the sweep missed. The full protocol and
    // its orderings live in src/core/remote_pending.h (model-checked by
    // tests/model_check_test.cc). On its own cache line with `channels`,
    // the two fields producers touch, apart from the owner-written stats.
    alignas(kCacheLineBytes) RemotePendingFlag<> remote_pending;
    // One command channel per registered producer: entry p exists once
    // producers_registered_ exceeds p, and is never replaced.
    std::array<std::unique_ptr<SpscChannel<Command>>, kMaxProducers> channels;
  };

  static void OnEventRetired(void* ctx, uint64_t cookie) {
    static_cast<Shard*>(ctx)->remote_ids.Erase(cookie);
  }

  // Applies a drained command on the owner thread.
  void ApplyCommand(Shard& shard, Command&& cmd);
  // The shard facility's id for a runtime id that targets `shard`.
  static uint64_t LocalId(const Shard& shard, uint64_t id_value);
  bool ApplyCancel(Shard& shard, uint64_t id_value);
  bool ApplyReschedule(Shard& shard, uint64_t id_value, uint64_t delta_ticks);

  // Producer side of every cross-core command: pushes `cmd` into the
  // (producer, shard) channel, raises the shard's pending flag and fires
  // the wake hook.
  void PushCommand(ProducerToken& token, size_t shard, Command&& cmd);

  const ClockSource* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;
  WakeFn wake_fn_ = nullptr;
  void* wake_ctx_ = nullptr;
  std::mutex producer_mutex_;  // registration only, never on a data path
  // Producers whose channels exist on every shard. Written under
  // producer_mutex_ (release, after the channels are built); read by each
  // drain (acquire, after BeginDrain's fence).
  std::atomic<size_t> producers_registered_{0};
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_CORE_SHARDED_SOFT_TIMER_RUNTIME_H_
