// PacingWheel: a timestamp-bucketed pacing wheel for very large flow
// counts (Carousel-style; see PAPERS.md on grouped-deadline timer
// management and batched retrieval).
//
// The rate-based clocking design of Section 4.1 spends one soft-timer
// event and one ScheduleSoftEvent per flow per packet, so pacing cost grows
// linearly with flow count. The wheel inverts that: flows are bucketed by
// next-transmission deadline into fixed-width slots (the pacer quantum,
// typically 1-16 us of measurement ticks), and ONE soft-timer event drives
// the whole wheel. On fire the caller reads the clock once, Drain() sweeps
// every slot <= now, and all due flows are emitted as a batch (PacedEmit
// records handed to a BatchSink), so the per-packet cost collapses to a
// slot-vector append plus a burst append.
//
// Semantics:
//  * Per-flow pacing decisions are exactly AdaptivePacer's (the shared
//    PacedTrain arithmetic): target interval normally, min-burst interval
//    when the train is behind schedule, bounded coalesced bursts at stale
//    wakeups.
//  * Slot quantization never fires a flow early: each node carries its
//    exact deadline and a drained slot re-keeps nodes whose deadline is
//    still in the future. Lateness is bounded by the driving event's
//    dispatch bound (the facility's T < actual < T + X + 1; the backup
//    interrupt enforces the high side), not by the quantum.
//  * Deadlines farther than one horizon (quantum * num_slots) park in a
//    hierarchical overflow ring (Varghese & Lauck's cascading, one level
//    deep): a coarse outer ring whose slots each span one inner
//    horizon. When the drain cursor enters an outer window, its entries
//    cascade into the inner wheel (they are then at most one lap out) and
//    later-lap entries re-park. Parked deadlines are never clamped and
//    never fire early; Stats::overflow_parks / overflow_cascades /
//    overflow_reparks count the traffic and Stats::horizon_clamps stays 0.
//  * Steady state allocates nothing: nodes live in a TimerSlab, slot
//    vectors and the emit batch grow to the workload high-water mark and
//    are reused.
//
// Reentrancy: BatchSink callbacks may call back into the wheel (Activate /
// Deactivate / ReRate / Cancel / AddFlow) for any flow, including ones in
// the batch being flushed. Nodes being drained are detached into a scratch
// vector; mutators detect "not currently linked" and defer the operation
// via node state instead of corrupting the sweep.
//
// Single-threaded by design, like the facility: one wheel per shard, all
// calls from the shard's owner thread. Another core mutates a flow by
// sending the owning shard a cross-core soft event
// (ShardedSoftTimerRuntime::ScheduleCrossCore with delta 0) whose handler
// calls the wheel or its PacingWheelHost.

#ifndef SOFTTIMER_SRC_PACING_PACING_WHEEL_H_
#define SOFTTIMER_SRC_PACING_PACING_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/pacing/paced_flow.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

class PacingWheel {
 public:
  struct Config {
    // Slot width in measurement-clock ticks (the pacing quantum). All flows
    // due within the same quantum share a slot and are emitted in one batch.
    uint64_t quantum_ticks = 8;
    // Number of slots; rounded up to a power of two. Horizon (the farthest
    // representable deadline) is quantum_ticks * num_slots.
    uint32_t num_slots = 4096;
    // Emit-batch flush threshold: Drain hands the sink at most this many
    // PacedEmit records per OnPacedBatch call.
    size_t max_batch = 256;
    // Entries pre-reserved in EVERY slot vector (plus the drain scratch and
    // the emit batch) at construction. Default 0: slot vectors grow lazily
    // to the workload high-water mark, which is the right trade at large
    // scale (1M flows x 4096 slots cannot pre-reserve worst case). Set to
    // the active-flow count for a PROVABLE zero-allocation steady state:
    // re-rates and catch-up drains can momentarily pile every flow into one
    // slot, and the slot that gets hit changes with absolute time, so lazy
    // growth keeps finding fresh vectors to ratchet. Costs
    // 4 * num_slots * reserve bytes up front.
    uint32_t reserve_slot_capacity = 0;
    // Outer overflow-ring slots; rounded up to a power of two (min 2).
    // Each outer slot spans one inner horizon, so the ring covers
    // overflow_slots * quantum_ticks * num_slots ticks before deadlines
    // wrap onto a later lap (re-parked at cascade time, still exact).
    uint32_t overflow_slots = 64;
  };

  // Receives drain batches. `now_tick` is the (single, amortized) clock
  // read the drain ran under.
  class BatchSink {
   public:
    virtual ~BatchSink() = default;
    virtual void OnPacedBatch(const PacedEmit* batch, size_t count,
                              uint64_t now_tick) = 0;
  };

  explicit PacingWheel(Config config);

  // --- flow registry (control plane) -----------------------------------
  // Registers a flow (idle: not yet scheduled). O(1); allocates only when
  // the slab grows past its high-water mark.
  PacedFlowId AddFlow(const PacedFlowConfig& config);

  // Unregisters a flow in any state. False for stale ids.
  bool RemoveFlow(PacedFlowId id);

  // --- scheduling (hot path, all O(1)) ----------------------------------
  // Starts (or restarts) the flow's packet train at now_tick and queues its
  // first emission at now_tick + initial_delay_ticks (+1 for the schedule
  // not being tick-aligned, mirroring the facility). Staggering
  // initial_delay across flows avoids synchronized slot convoys. False for
  // stale ids; re-activating an already-queued flow relinks it.
  bool Activate(PacedFlowId id, uint64_t now_tick,
                uint64_t initial_delay_ticks = 0);

  // Unlinks the flow from the wheel but keeps it registered (idle). False
  // for stale ids; true (idempotent success) if already idle.
  bool Deactivate(PacedFlowId id);

  // Replaces the flow's target/min-burst intervals and restarts its train
  // at now_tick, relinking its pending emission accordingly. The flow must
  // be active for the relink to take effect immediately; an idle flow just
  // gets the new rate on its next Activate. False for stale ids.
  bool ReRate(PacedFlowId id, uint64_t now_tick, uint64_t target_interval_ticks,
              uint64_t min_burst_interval_ticks);

  // Grants the flow `packets` more budget (no-op for unlimited flows) and
  // reactivates it if it auto-idled on budget exhaustion. False for stale
  // ids.
  bool AddBudget(PacedFlowId id, uint64_t now_tick, uint32_t packets);

  // --- draining ---------------------------------------------------------
  // Sweeps every slot whose ticks are <= now_tick, emits due flows to
  // `sink` in batches, and re-buckets each emitted flow at its next
  // deadline. Returns total packets granted. One clock read per drain: the
  // caller passes `now_tick` (typically FireInfo::fired_tick); the wheel
  // never reads a clock.
  size_t Drain(uint64_t now_tick, BatchSink* sink);

  // --- introspection ----------------------------------------------------
  // Earliest pending deadline (absolute tick), or UINT64_MAX when no flow
  // is queued. Conservative (never later than the true earliest): the
  // wheel-event host arms the facility from this.
  uint64_t next_due_tick() const { return next_due_tick_; }

  uint64_t quantum_ticks() const { return config_.quantum_ticks; }
  uint64_t horizon_ticks() const { return config_.quantum_ticks * num_slots_; }
  uint32_t num_slots() const { return num_slots_; }

  // Retunes the emit-batch flush threshold at runtime (floor 1). This is
  // the governor->pacer coupling point: PacingWheelHost feeds the poll
  // governor's achieved aggregation quota here so the emit batch size
  // adapts to load exactly like the poll interval does. Growing the
  // threshold re-reserves batch_ immediately (an allocation - call from
  // control paths, not mid-drain); shrinking never releases capacity.
  void set_max_batch(size_t max_batch);
  size_t max_batch() const { return config_.max_batch; }

  bool contains(PacedFlowId id) const { return slab_.IsCurrent(id.value); }
  // True when the flow is registered and currently queued on the wheel.
  bool active(PacedFlowId id) const;

  size_t live_flows() const { return slab_.stats().live; }
  // Flows currently scheduled (inner wheel + overflow ring).
  size_t queued_flows() const { return queued_ + parked_; }
  // Flows currently parked in the overflow ring.
  size_t parked_flows() const { return parked_; }
  uint32_t overflow_slots() const { return outer_slots_count_; }

  TimerSlabStats slab_stats() const { return slab_.stats(); }
  // Releases fully-free slab chunks + excess slot/scratch capacity.
  size_t TrimStorage();

  struct Stats {
    uint64_t activations = 0;
    uint64_t deactivations = 0;    // explicit Deactivate calls that unlinked
    uint64_t re_rates = 0;
    uint64_t drains = 0;           // Drain calls that swept at least a slot
    uint64_t spurious_drains = 0;  // Drain calls gated out (nothing due)
    uint64_t emits = 0;            // PacedEmit records produced
    uint64_t packets_granted = 0;  // sum of grants over all emits
    uint64_t coalesced_bursts = 0; // emits granting > 1 packet
    uint64_t catchup_decisions = 0;  // re-buckets on the min-burst branch
    uint64_t keep_requeues = 0;    // swept nodes not yet due (quantization)
    // Always 0 since the overflow ring landed (far deadlines park instead
    // of clamping); retained so dashboards can assert the absence.
    uint64_t horizon_clamps = 0;
    uint64_t overflow_parks = 0;     // deadlines parked in the outer ring
    uint64_t overflow_cascades = 0;  // parked nodes moved into the inner wheel
    uint64_t overflow_reparks = 0;   // later-lap nodes re-parked at cascade
    uint64_t batch_flushes = 0;    // OnPacedBatch calls
    uint64_t budget_exhausted = 0; // flows auto-idled by packet budget
    uint64_t deferred_cancels = 0; // mutations deferred mid-drain
  };
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  struct Slot {
    std::vector<uint32_t> entries;  // node indices, unordered
    // Conservative lower bound on the earliest deadline linked here (exact
    // after every full sweep; may lag low after an unlink, costing at most
    // one early wake).
    uint64_t min_deadline = UINT64_MAX;
  };

  uint32_t SlotIndexFor(uint64_t tick) const {
    return static_cast<uint32_t>(tick / config_.quantum_ticks) & slot_mask_;
  }

  uint32_t OuterSlotIndexFor(uint64_t tick) const {
    return static_cast<uint32_t>(tick / horizon_ticks()) & outer_mask_;
  }

  // Grows a slot's entry vector when an append finds it at capacity.
  // Factored out of the link paths so the hot-closure analyzer sees the
  // growth behind one SOFTTIMER_COLD boundary (see the definition).
  void GrowSlotEntries(Slot& slot);
  // Links node `index` (with node.deadline set) into its inner slot.
  void LinkNode(uint32_t index, PacedFlowNode& node);
  // O(1) swap-remove unlink. Only call when IsLinked.
  void UnlinkNode(uint32_t index, PacedFlowNode& node);
  // True when the node is genuinely inside an inner slot vector (as opposed
  // to detached into the drain scratch, parked, or idle).
  bool IsLinked(uint32_t index, const PacedFlowNode& node) const;

  // True when the node is parked in the overflow ring. Parked nodes are
  // always physically linked (the cascade runs before any sink callback,
  // so mutators never observe a node detached from the outer ring).
  bool IsParked(const PacedFlowNode& node) const {
    return node.slot != kNilPacingSlot && node.slot >= kOuterPacingSlotBase;
  }

  // Parks node `index` (with node.deadline set) in the outer ring.
  void ParkNode(uint32_t index, PacedFlowNode& node);
  // O(1) swap-remove from the outer ring. Only call when IsParked.
  void UnlinkParked(uint32_t index, PacedFlowNode& node);

  // Routes a node with deadline set relative to now_tick: inner wheel when
  // the delay fits the horizon, overflow ring otherwise.
  void AttachNode(uint32_t index, PacedFlowNode& node, uint64_t now_tick);

  // Moves every due outer window's entries into the inner wheel (re-parking
  // later-lap entries). Runs at the top of Drain, before any sink callback.
  void CascadeOverflow(uint64_t now_tick);
  void CascadeOuterSlot(uint32_t outer_index, uint64_t now_tick);

  // Recomputes next_due_tick_ by scanning the occupancy bitmap circularly
  // from the slot covering `from_tick`.
  void RecomputeNextDue(uint64_t from_tick);

  void MarkOccupied(uint32_t slot_index) {
    occupancy_[slot_index >> 6] |= 1ull << (slot_index & 63);
  }
  void ClearOccupied(uint32_t slot_index) {
    occupancy_[slot_index >> 6] &= ~(1ull << (slot_index & 63));
  }

  void FlushBatch(BatchSink* sink, uint64_t now_tick);

  Config config_;
  uint32_t num_slots_ = 0;  // power of two
  uint32_t slot_mask_ = 0;
  uint32_t outer_slots_count_ = 0;  // power of two
  uint32_t outer_mask_ = 0;
  TimerSlab<PacedFlowNode> slab_;
  std::vector<Slot> slots_;
  // Overflow ring: outer slot i holds nodes whose deadline / horizon is
  // congruent to i (mod outer_slots_count_). min_deadline has the same
  // conservative semantics as inner slots.
  std::vector<Slot> outer_slots_;
  std::vector<uint64_t> occupancy_;  // one bit per slot
  // Detached entries of the slot being swept (drain scratch; reused).
  std::vector<uint32_t> scratch_;
  // Detached entries of the outer slot being cascaded (reused).
  std::vector<uint32_t> outer_scratch_;
  std::vector<PacedEmit> batch_;
  // Largest capacity any slot vector has reached. A slot that must grow
  // jumps straight here: slot vectors are interchangeable buffers (drain
  // swaps them through scratch_), so making each of the num_slots_ vectors
  // rediscover the same occupancy peak via its own geometric growth would
  // ratchet allocations for the lifetime of the process. With the jump,
  // steady state allocates only when the GLOBAL occupancy record is broken.
  uint32_t slot_capacity_high_water_ = 0;
  size_t queued_ = 0;  // inner-wheel linked nodes
  size_t parked_ = 0;  // overflow-ring linked nodes
  uint64_t next_due_tick_ = UINT64_MAX;
  // Start tick of the next outer window the cascade has not yet processed
  // (horizon-aligned). Window W = [k*H, (k+1)*H) is processed once the
  // drain clock reaches W's start: every current-lap entry is then within
  // one horizon and cascades; later laps re-park.
  uint64_t outer_cursor_tick_ = 0;
  // Quantum-aligned tick of the first slot the next sweep starts from. The
  // current quantum's slot is deliberately never marked fully swept (a node
  // due later in the same quantum must be revisited), so this trails
  // align_down(now) of the latest drain.
  uint64_t cursor_tick_ = 0;
  bool draining_ = false;
  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_PACING_PACING_WHEEL_H_
