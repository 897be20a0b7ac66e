// Span tracer for the benchmark's own calls into each layer.
//
// A Span is a scoped timer around one call into a layer's public API. Spans
// nest through a small per-thread stack, so each closed span knows its
// parent and how much of its interval its children covered; its self time
// is duration minus that. Records land in per-thread memory preallocated
// before timing starts (no allocation while tracing), and per-kind totals
// are kept even after the record buffer fills. Spans of one request carry
// the request id, so poll -> drain -> activate -> emit -> sent -> ack share
// one id in web_mixed.
//
// Tracing is off unless g_trace_on is set; an untraced Span costs one
// relaxed load and a branch.

#ifndef STBENCH_SRC_TRACE_H_
#define STBENCH_SRC_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "stbench/src/common.h"

namespace stbench {

enum class SpanKind : uint8_t {
  kNetPoll,          // QueueWork.poll -> MultiQueuePoller::PollOnce
  kNetDrain,         // one request taken off an rx queue
  kPacingActivate,   // PacingWheelHost::AddBudget / Activate
  kPacingPoll,       // PacingWheelHost::Poll in shard_tick
  kPacingEmit,       // one PacedEmit handled by the benchmark's sink
  kTcpSent,          // RtoEngine::OnSegmentSent
  kTcpAck,           // RtoEngine::OnCumulativeAck
  kCoreSchedule,     // ShardedSoftTimerRuntime::ScheduleCrossCoreWithRetry
  kCoreCancel,       // ShardedSoftTimerRuntime::CancelCrossCore
  kCoreReschedule,   // ShardedSoftTimerRuntime::RescheduleCrossCore
  kRtShardTick,      // the whole ShardedRtHost shard_tick hook
  kCount,
};

inline constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kCount);

const char* SpanName(SpanKind kind);
// Layer a span kind belongs to: "net", "pacing", "tcp", "core" or "rt".
const char* SpanLayer(SpanKind kind);

struct SpanRecord {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t req = 0;       // request id (0 = none)
  uint32_t parent = 0;    // index+1 of the parent record (0 = root)
  SpanKind kind = SpanKind::kNetPoll;
};

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

// One thread's span memory. Created (and sized) before the thread starts
// timing; only that thread writes it, the main thread reads it after join.
class TraceBuffer {
 public:
  TraceBuffer(uint32_t tid, size_t capacity);

  void Open(SpanKind kind, uint64_t req);
  void Close();

  uint32_t tid() const { return tid_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  const SpanTotals& totals(SpanKind kind) const {
    return totals_[static_cast<size_t>(kind)];
  }
  uint64_t dropped() const { return dropped_; }

 private:
  struct Frame {
    SpanKind kind;
    uint64_t req;
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t record;  // index+1 into records_, 0 when not recorded
  };
  static constexpr size_t kMaxDepth = 16;

  uint32_t tid_;
  size_t capacity_;
  std::vector<SpanRecord> records_;
  std::array<Frame, kMaxDepth> stack_{};
  size_t depth_ = 0;
  size_t overflow_depth_ = 0;  // opens beyond kMaxDepth (not timed)
  uint64_t dropped_ = 0;
  std::array<SpanTotals, kNumSpanKinds> totals_{};
};

extern std::atomic<bool> g_trace_on;
// The calling thread's buffer; null on threads that do not trace.
extern thread_local TraceBuffer* t_trace;

class Span {
 public:
  explicit Span(SpanKind kind, uint64_t req = 0) {
    // ordering: a phase flag flipped by the main thread; a span opened a
    // moment before or after the flip lands in the neighbouring phase.
    if (t_trace != nullptr && g_trace_on.load(std::memory_order_relaxed)) {
      buf_ = t_trace;
      buf_->Open(kind, req);
    }
  }
  ~Span() {
    if (buf_ != nullptr) {
      buf_->Close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceBuffer* buf_ = nullptr;
};

// Writes every recorded span of every buffer as Chrome trace-event JSON.
// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers);

}  // namespace stbench

#endif  // STBENCH_SRC_TRACE_H_
