// Library defaults on the nanosecond clock, and the per-layer reports the
// workloads share.

#include "stbench/src/workloads.h"

namespace stbench {

using softtimer::LatencyHistogram;
using softtimer::MultiQueuePoller;
using softtimer::PacingWheel;
using softtimer::PacingWheelHost;
using softtimer::RtoEngine;

PacingWheel::Config DefaultWheelConfig() {
  PacingWheel::Config c;
  c.quantum_ticks *= kDefaultTickScale;
  return c;
}

RtoEngine::Config DefaultRtoConfig(size_t shard) {
  RtoEngine::Config c;
  c.shard = shard;
  c.rto_initial_ticks *= kDefaultTickScale;
  c.rto_min_ticks *= kDefaultTickScale;
  c.rto_max_ticks *= kDefaultTickScale;
  return c;
}

MultiQueuePoller::Config DefaultPollerConfig() {
  MultiQueuePoller::Config c;
  c.governor.min_interval_ticks *= kDefaultTickScale;
  c.governor.max_interval_ticks *= kDefaultTickScale;
  c.governor.initial_interval_ticks *= kDefaultTickScale;
  return c;
}

void ReportNet(Report& r, const ShardRegistry& reg, NetLayerInput& in) {
  MultiQueuePoller::CoreStats sum;
  if (in.poller != nullptr) {
    for (uint32_t c = 0; c < kShards; ++c) {
      MultiQueuePoller::CoreStats s = in.poller->core_stats(c);
      sum.polls += s.polls;
      sum.packets += s.packets;
      sum.gate_skips += s.gate_skips;
      sum.claim_conflicts += s.claim_conflicts;
    }
  }
  r.Layer("net.poll_ns_mean", MeanSpanNs(reg, SpanKind::kNetPoll), "ns/call");
  r.Layer("net.empty_poll_frac",
          Ratio(static_cast<double>(in.empty_polls),
                static_cast<double>(in.poll_calls)),
          "ratio");
  r.Layer("net.pkts_per_poll",
          Ratio(static_cast<double>(sum.packets), static_cast<double>(sum.polls)),
          "count");
  r.Layer("net.achieved_quota", in.achieved_quota, "count");
  r.Layer("net.gate_skips", static_cast<double>(sum.gate_skips), "count");
  r.Layer("net.claim_conflicts", static_cast<double>(sum.claim_conflicts),
          "count");
  r.Summary("net.queue_wait_p99_us",
            Percentile(in.queue_wait_ns, 99.0) / kNsPerUs, "us");
}

void ReportPacing(Report& r, const ShardRegistry& reg,
                  const std::vector<const PacingWheelHost*>& hosts) {
  PacingWheelHost::Stats sum;
  for (const PacingWheelHost* h : hosts) {
    const PacingWheelHost::Stats& s = h->stats();
    sum.wheel_events += s.wheel_events;
    sum.poll_drains += s.poll_drains;
    sum.packets_granted += s.packets_granted;
    sum.batch_retunes += s.batch_retunes;
  }
  // Pacing's own cost per granted emission, from the traced phase: the
  // layer's self time (wheel drains under Poll, activations, the sink's
  // emit dispatch) over the emit spans it produced.
  uint64_t self = 0;
  uint64_t emits = 0;
  for (const TraceBuffer* b : reg.all_traces()) {
    self += b->totals(SpanKind::kPacingPoll).self_ns +
            b->totals(SpanKind::kPacingActivate).self_ns +
            b->totals(SpanKind::kPacingEmit).self_ns;
    emits += b->totals(SpanKind::kPacingEmit).count;
  }
  r.Layer("pacing.poll_ns_mean", MeanSpanNs(reg, SpanKind::kPacingPoll),
          "ns/call");
  r.Layer("pacing.ns_per_pkt",
          Ratio(static_cast<double>(self), static_cast<double>(emits)),
          "ns/pkt");
  r.Layer("pacing.pkts_per_drain",
          Ratio(static_cast<double>(sum.packets_granted),
                static_cast<double>(sum.wheel_events + sum.poll_drains)),
          "count");
  r.Layer("pacing.wheel_events", static_cast<double>(sum.wheel_events),
          "count");
  r.Layer("pacing.batch_retunes", static_cast<double>(sum.batch_retunes),
          "count");
  r.Layer("pacing.packets", static_cast<double>(sum.packets_granted), "count");
}

void ReportTcp(Report& r, const ShardRegistry& reg,
               const std::vector<const RtoEngine*>& engines,
               const LatencyHistogram& rto_lateness) {
  RtoEngine::Stats sum;
  for (const RtoEngine* e : engines) {
    const RtoEngine::Stats& s = e->stats();
    sum.timers_scheduled += s.timers_scheduled;
    sum.timers_cancelled += s.timers_cancelled;
    sum.timers_fired += s.timers_fired;
    sum.timers_rescheduled += s.timers_rescheduled;
    sum.retransmits += s.retransmits;
    sum.give_ups += s.give_ups;
  }
  r.Layer("tcp.sent_ns_mean", MeanSpanNs(reg, SpanKind::kTcpSent), "ns/call");
  r.Layer("tcp.ack_ns_mean", MeanSpanNs(reg, SpanKind::kTcpAck), "ns/call");
  r.Layer("tcp.timers_scheduled", static_cast<double>(sum.timers_scheduled),
          "count");
  r.Layer("tcp.timers_cancelled", static_cast<double>(sum.timers_cancelled),
          "count");
  r.Layer("tcp.timers_fired", static_cast<double>(sum.timers_fired), "count");
  r.Layer("tcp.timers_rescheduled",
          static_cast<double>(sum.timers_rescheduled), "count");
  r.Layer("tcp.retransmits", static_cast<double>(sum.retransmits), "count");
  r.Layer("tcp.give_ups", static_cast<double>(sum.give_ups), "count");
  r.Summary("tcp.rto_lateness_p99_us",
            InterpPercentile(rto_lateness, 99.0) / kNsPerUs, "us");
}

}  // namespace stbench
