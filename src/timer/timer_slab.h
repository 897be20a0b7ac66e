// TimerSlab: chunked slab/free-list node storage under HeapTimerQueue and
// the pacing wheel, plus the packed generation-counted TimerId encoding.
//
// Why a slab: the scheduling hot path must not touch the allocator. Nodes
// are recycled through an intrusive free list, so steady-state schedule /
// cancel / fire cycles perform zero heap allocations once the slab has grown
// to the workload's high-water mark. Chunks (not one big vector) keep node
// addresses stable across growth, so callbacks that schedule new timers
// cannot invalidate a node reference held by the expiry loop.
//
// Why generations: slot indices are recycled, so a bare index would let a
// stale TimerId cancel an unrelated timer that happens to reuse the slot
// (the classic ABA bug). Every slot carries a generation counter that is
// bumped on free; a TimerId packs {shard, generation, index} and is only
// honoured while the slot's generation still matches.
//
// Id layout (64 bits):
//
//   [63..56] shard      - owning shard in a ShardedSoftTimerRuntime; 0 for
//                         a standalone facility (the slab itself never sets
//                         these bits; the runtime ORs them in).
//   [55]     remote bit - set on runtime-issued cross-core ids, which live in
//                         a per-shard side table instead of the slab.
//   [54..32] generation - 23-bit wrapping counter, never 0.
//   [31..0]  index      - slab slot.
//
// Trim() releases chunks whose nodes are all free, so a workload burst does
// not pin its high-water mark forever. A released chunk remembers (in
// chunk_floor_generation_) one generation past the highest it ever handed
// out; if the chunk is later re-materialized, its nodes resume from that
// floor, so TimerIds minted before the trim still mismatch (ABA safety
// survives the release/re-materialize cycle).

#ifndef SOFTTIMER_SRC_TIMER_TIMER_SLAB_H_
#define SOFTTIMER_SRC_TIMER_TIMER_SLAB_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace softtimer {

// Sentinel for "no node" in intrusive index links.
inline constexpr uint32_t kNilTimerIndex = 0xFFFFFFFFu;

// --- TimerId bit layout -----------------------------------------------
inline constexpr uint32_t kTimerIdShardShift = 56;
inline constexpr uint32_t kTimerIdMaxShards = 256;  // 8 shard bits
inline constexpr uint64_t kTimerIdRemoteBit = 1ull << 55;
inline constexpr uint32_t kTimerIdGenerationBits = 23;
inline constexpr uint32_t kTimerIdGenerationMask =
    (1u << kTimerIdGenerationBits) - 1;

// TimerId::value <-> {slot index, generation}. Generations start at 1 and
// wrap inside the 23-bit field skipping 0, so a packed value is never 0
// (0 is the invalid/default TimerId).
inline constexpr uint64_t PackTimerIdValue(uint32_t index, uint32_t generation) {
  return (static_cast<uint64_t>(generation & kTimerIdGenerationMask) << 32) |
         index;
}
inline constexpr uint32_t TimerIdIndex(uint64_t value) {
  return static_cast<uint32_t>(value);
}
inline constexpr uint32_t TimerIdGeneration(uint64_t value) {
  return static_cast<uint32_t>(value >> 32) & kTimerIdGenerationMask;
}

// Shard annotation (used by ShardedSoftTimerRuntime; a bare facility leaves
// shard 0 and the remote bit clear).
inline constexpr uint32_t TimerIdShard(uint64_t value) {
  return static_cast<uint32_t>(value >> kTimerIdShardShift);
}
inline constexpr uint64_t WithTimerIdShard(uint64_t value, uint32_t shard) {
  return value | (static_cast<uint64_t>(shard) << kTimerIdShardShift);
}
inline constexpr bool IsRemoteTimerId(uint64_t value) {
  return (value & kTimerIdRemoteBit) != 0;
}
// Clears the shard byte and the remote bit, leaving a facility-local id.
inline constexpr uint64_t StripTimerIdShard(uint64_t value) {
  return value & (kTimerIdRemoteBit - 1);
}

// Bumps a generation inside the 23-bit field, skipping 0.
inline constexpr uint32_t NextTimerGeneration(uint32_t generation) {
  uint32_t next = (generation + 1) & kTimerIdGenerationMask;
  return next == 0 ? 1 : next;
}

// Node lifecycle states shared by the timer queue and the pacing wheel.
enum class TimerNodeState : uint8_t {
  kFree = 0,
  kPending,
  kCancelledDue,  // pacing wheel: cancelled while sitting in an expiry batch
  kFiring,        // heap: its handler is running (HeapTimerQueue::ExpireUpTo)
};

// Capacity/occupancy snapshot (surfaced through HeapTimerQueue::slab_stats
// and facility Stats).
struct TimerSlabStats {
  uint32_t capacity = 0;        // slots currently backed by storage
  uint32_t live = 0;            // allocated (non-free) nodes
  uint32_t chunks = 0;          // materialized chunks
  uint32_t released_chunks = 0; // chunks released by Trim, re-usable
};

// Node must provide:
//   uint32_t generation;        // starts at 1; bumped by Free (never 0)
//   uint32_t next;              // reused as the free-list link while free
//   TimerNodeState state;       // set to kFree by Free
template <typename Node>
class TimerSlab {
 public:
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  Node& at(uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }
  const Node& at(uint32_t index) const {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  uint32_t capacity() const {
    return static_cast<uint32_t>(chunks_.size()) << kChunkShift;
  }

  // True when `id_value` decodes to a currently-allocated slot whose
  // generation matches (i.e. the id is not stale/reused/invalid). Ids whose
  // chunk was released by Trim are stale by construction.
  bool IsCurrent(uint64_t id_value) const {
    uint32_t index = TimerIdIndex(id_value);
    if (id_value == 0 || index >= capacity() ||
        chunks_[index >> kChunkShift] == nullptr) {
      return false;
    }
    const Node& n = at(index);
    return n.state != TimerNodeState::kFree &&
           n.generation == TimerIdGeneration(id_value);
  }

  // Returns the index of a fresh node (state kPending, generation valid).
  // Allocates a new chunk only when the free list is empty and no released
  // chunk can be re-materialized.
  // SOFTTIMER_HOT
  uint32_t Allocate() {
    if (free_head_ == kNilTimerIndex) {
      Grow();
    }
    uint32_t index = free_head_;
    Node& n = at(index);
    free_head_ = n.next;
    n.next = kNilTimerIndex;
    n.state = TimerNodeState::kPending;
    ++live_;
    return index;
  }

  // Recycles a node: bumps the generation (invalidating every outstanding
  // TimerId for this slot) and pushes it on the free list.
  // SOFTTIMER_HOT
  void Free(uint32_t index) {
    Node& n = at(index);
    n.generation = NextTimerGeneration(n.generation);
    n.state = TimerNodeState::kFree;
    n.next = free_head_;
    free_head_ = index;
    --live_;
  }

  // Releases every chunk whose nodes are all free, rebuilding the free list
  // over the surviving chunks. Returns the number of chunks released. Safe
  // for outstanding stale ids: a released slot fails IsCurrent, and a
  // re-materialized chunk resumes at a generation floor past everything the
  // old chunk issued. Callers must ensure no *internal* references (bucket
  // links, heap entries) point into fully-free chunks before trimming - true
  // for the pacing wheel, whose slot vectors drop a node before freeing it,
  // and after Compact() for the lazy-deletion heap.
  size_t Trim() {
    size_t released = 0;
    for (size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] == nullptr) {
        continue;
      }
      Node* chunk = chunks_[c].get();
      bool all_free = true;
      uint32_t max_generation = 0;
      for (uint32_t i = 0; i < kChunkSize; ++i) {
        if (chunk[i].state != TimerNodeState::kFree) {
          all_free = false;
          break;
        }
        if (chunk[i].generation > max_generation) {
          max_generation = chunk[i].generation;
        }
      }
      if (!all_free) {
        continue;
      }
      chunk_floor_generation_[c] = NextTimerGeneration(max_generation);
      chunks_[c].reset();
      ++released_chunks_;
      ++released;
    }
    if (released > 0) {
      RebuildFreeList();
    }
    return released;
  }

  TimerSlabStats stats() const {
    TimerSlabStats s;
    s.chunks = static_cast<uint32_t>(chunks_.size()) -
               static_cast<uint32_t>(released_chunks_);
    s.capacity = s.chunks << kChunkShift;
    s.live = live_;
    s.released_chunks = static_cast<uint32_t>(released_chunks_);
    return s;
  }

 private:
  // SOFTTIMER_COLD: amortized slab growth - entered only when the free list
  // is empty, i.e. when the live-timer population breaks its previous peak;
  // steady state runs at capacity and recycles freed nodes without ever
  // re-entering (the zero-alloc schedule/cancel contract of DESIGN.md §5).
  void Grow() {
    // Prefer re-materializing a released chunk (keeps the index space dense
    // and honours its generation floor) over appending a new one.
    if (released_chunks_ > 0) {
      for (size_t c = 0; c < chunks_.size(); ++c) {
        if (chunks_[c] == nullptr) {
          MaterializeChunk(c, chunk_floor_generation_[c]);
          --released_chunks_;
          return;
        }
      }
    }
    chunks_.emplace_back();
    chunk_floor_generation_.push_back(1);
    MaterializeChunk(chunks_.size() - 1, 1);
  }

  void MaterializeChunk(size_t c, uint32_t generation_floor) {
    uint32_t base = static_cast<uint32_t>(c) << kChunkShift;
    chunks_[c] = std::make_unique<Node[]>(kChunkSize);
    Node* chunk = chunks_[c].get();
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      chunk[i].generation = generation_floor;
      chunk[i].state = TimerNodeState::kFree;
      chunk[i].next = i + 1 < kChunkSize ? base + i + 1 : free_head_;
    }
    free_head_ = base;
  }

  void RebuildFreeList() {
    free_head_ = kNilTimerIndex;
    // Walk chunks in reverse so the rebuilt list hands out low indices first.
    for (size_t c = chunks_.size(); c-- > 0;) {
      if (chunks_[c] == nullptr) {
        continue;
      }
      Node* chunk = chunks_[c].get();
      uint32_t base = static_cast<uint32_t>(c) << kChunkShift;
      for (uint32_t i = kChunkSize; i-- > 0;) {
        if (chunk[i].state == TimerNodeState::kFree) {
          chunk[i].next = free_head_;
          free_head_ = base + i;
        }
      }
    }
  }

  std::vector<std::unique_ptr<Node[]>> chunks_;
  // Generation floor a released chunk must resume from (parallel to chunks_).
  std::vector<uint32_t> chunk_floor_generation_;
  uint32_t free_head_ = kNilTimerIndex;
  uint32_t live_ = 0;
  size_t released_chunks_ = 0;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TIMER_TIMER_SLAB_H_
