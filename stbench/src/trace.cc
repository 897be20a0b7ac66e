#include "stbench/src/trace.h"

#include <cstdio>

namespace stbench {

std::atomic<bool> g_trace_on{false};
thread_local TraceBuffer* t_trace = nullptr;

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kNetPoll:
      return "net.poll";
    case SpanKind::kNetDrain:
      return "net.drain";
    case SpanKind::kPacingActivate:
      return "pacing.activate";
    case SpanKind::kPacingPoll:
      return "pacing.poll";
    case SpanKind::kPacingEmit:
      return "pacing.emit";
    case SpanKind::kTcpSent:
      return "tcp.sent";
    case SpanKind::kTcpAck:
      return "tcp.ack";
    case SpanKind::kCoreSchedule:
      return "core.xcore_schedule";
    case SpanKind::kCoreCancel:
      return "core.xcore_cancel";
    case SpanKind::kCoreReschedule:
      return "core.xcore_reschedule";
    case SpanKind::kRtShardTick:
      return "rt.shard_tick";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

const char* SpanLayer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kNetPoll:
    case SpanKind::kNetDrain:
      return "net";
    case SpanKind::kPacingActivate:
    case SpanKind::kPacingPoll:
    case SpanKind::kPacingEmit:
      return "pacing";
    case SpanKind::kTcpSent:
    case SpanKind::kTcpAck:
      return "tcp";
    case SpanKind::kCoreSchedule:
    case SpanKind::kCoreCancel:
    case SpanKind::kCoreReschedule:
      return "core";
    case SpanKind::kRtShardTick:
    case SpanKind::kCount:
      break;
  }
  return "rt";
}

TraceBuffer::TraceBuffer(uint32_t tid, size_t capacity)
    : tid_(tid), capacity_(capacity) {
  records_.reserve(capacity_);
}

void TraceBuffer::Open(SpanKind kind, uint64_t req) {
  if (depth_ == kMaxDepth) {
    ++overflow_depth_;
    return;
  }
  uint32_t record = 0;
  if (records_.size() < capacity_) {
    uint32_t parent = depth_ > 0 ? stack_[depth_ - 1].record : 0;
    records_.push_back(SpanRecord{0, 0, req, parent, kind});
    record = static_cast<uint32_t>(records_.size());
  } else {
    ++dropped_;
  }
  stack_[depth_++] = Frame{kind, req, MonoNs(), 0, record};
}

void TraceBuffer::Close() {
  if (overflow_depth_ > 0) {
    --overflow_depth_;
    return;
  }
  uint64_t end = MonoNs();
  Frame f = stack_[--depth_];
  uint64_t dur = end - f.start_ns;
  SpanTotals& t = totals_[static_cast<size_t>(f.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  }
  if (f.record != 0) {
    SpanRecord& r = records_[f.record - 1];
    r.start_ns = f.start_ns;
    r.end_ns = end;
  }
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const TraceBuffer*>& buffers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = UINT64_MAX;
  for (const TraceBuffer* b : buffers) {
    for (const SpanRecord& r : b->records()) {
      origin = std::min(origin, r.start_ns);
    }
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const TraceBuffer* b : buffers) {
    const auto& recs = b->records();
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      if (r.end_ns == 0) {
        continue;  // still open when the run ended
      }
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                   "\"id\":%zu,\"parent\":%u}}",
                   first ? "" : ",\n", SpanName(r.kind), SpanLayer(r.kind),
                   b->tid(), static_cast<double>(r.start_ns - origin) / 1e3,
                   static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                   static_cast<unsigned long long>(r.req), i + 1, r.parent);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace stbench
