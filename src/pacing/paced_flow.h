// Paced-flow node and batch-emission types for the pacing wheel
// (src/pacing/pacing_wheel.h).
//
// A PacedFlowNode is the wheel's unit of state: one flow's pacing train
// (PacedTrain, src/core/adaptive_pacer.h) plus its wheel linkage, stored in
// a TimerSlab so a million flows cost a million nodes and zero steady-state
// allocations. Ids are the slab's generation-counted PackTimerIdValue
// encoding, so a stale PacedFlowId cancels nobody.

#ifndef SOFTTIMER_SRC_PACING_PACED_FLOW_H_
#define SOFTTIMER_SRC_PACING_PACED_FLOW_H_

#include <cstdint>

#include "src/core/adaptive_pacer.h"
#include "src/timer/timer_slab.h"

namespace softtimer {

// Identifies one flow registered with a PacingWheel. Default-constructed
// ids are invalid.
struct PacedFlowId {
  uint64_t value = 0;
  bool valid() const { return value != 0; }
};

// Per-flow pacing parameters, in measurement-clock ticks.
struct PacedFlowConfig {
  // Desired average inter-packet interval. Intervals longer than the inner
  // horizon are legal: deadlines past `quantum * num_slots` park in the
  // wheel's hierarchical overflow ring (Stats::overflow_parks) and cascade
  // into the inner wheel one lap ahead, so sub-horizon rates never fire
  // early and are never clamped. Capped at 2^32 - 1 ticks (the node's
  // 32-bit interval field).
  uint64_t target_interval_ticks = 0;
  // Smallest interval the catch-up branch may schedule (the maximal
  // allowable burst rate). Must be >= 1 and <= target.
  uint64_t min_burst_interval_ticks = 0;
  // Cap on packets granted to one wakeup when the flow is behind schedule
  // (PacedTrain::BurstBudget); <= 1 disables coalescing.
  uint32_t max_coalesced_burst_packets = 0;
  // Total packets the flow may emit before the wheel auto-idles it;
  // 0 = unlimited. Emission grants never exceed the remainder.
  uint32_t packet_budget = 0;
  // Opaque caller word handed back verbatim in every PacedEmit for this
  // flow (typically a pointer to the flow's transport object).
  uint64_t user_data = 0;
};

// One flow's due notification inside a drain batch: the sink may transmit
// up to `packets` back-to-back packets for the flow right now.
struct PacedEmit {
  PacedFlowId flow;
  uint64_t user_data;  // PacedFlowConfig::user_data
  uint32_t packets;    // coalesced-burst grant (>= 1)
  bool budget_exhausted;  // flow auto-idled: packet_budget just hit zero
};

// Flag bits in PacedFlowNode::flags.
inline constexpr uint8_t kPacedFlowFlagIdleOnDue = 1u << 0;

// Sentinel for "not linked into any slot".
inline constexpr uint32_t kNilPacingSlot = 0xFFFFFFFFu;

// A node whose `slot` field is >= this base is parked in the wheel's
// hierarchical overflow ring: `slot - kOuterPacingSlotBase` is the outer
// slot index, `next` its position in that slot's entry vector (same
// swap-remove linkage as inner slots). Inner slot indices stay below
// 2^31, and the base plus any outer index stays below kNilPacingSlot.
inline constexpr uint32_t kOuterPacingSlotBase = 0x80000000u;

// The slab node. 64 bytes: one cache line per flow on the drain path.
//
// Linkage design (measured, see DESIGN.md §10): slots hold *dense vectors
// of node indices*, not intrusive lists — a serial pointer chase over
// slab-scattered 64B nodes costs ~188 ns/node at 1M nodes on this class of
// hardware versus ~19 ns for an index sweep with prefetch. `next` is
// reused as the node's position inside its slot vector while queued
// (making unlink O(1) via swap-remove), and as the slab free-list link
// while free.
struct PacedFlowNode {
  // --- TimerSlab contract fields ---
  uint32_t generation = 1;
  uint32_t next = kNilTimerIndex;  // free-list link / position in slot vector
  TimerNodeState state = TimerNodeState::kFree;
  uint8_t flags = 0;
  uint16_t reserved = 0;
  // --- wheel linkage ---
  uint32_t slot = kNilPacingSlot;  // owning slot index; kNilPacingSlot = idle
  uint64_t deadline = 0;           // absolute next-due tick while queued
  // --- pacing state ---
  PacedTrain train;                   // {start_tick, packets}: 16 bytes
  uint32_t target_interval_ticks = 0;  // intervals capped at 2^32 - 1
  uint32_t min_burst_interval_ticks = 0;
  uint32_t max_coalesced_burst_packets = 0;
  uint32_t packets_remaining = 0;  // 0 = unlimited (mirrors packet_budget)
  uint64_t user_data = 0;
};
static_assert(sizeof(PacedFlowNode) == 64, "one cache line per flow");

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_PACING_PACED_FLOW_H_
