// conn_1m: about a million long-lived connections, paced and retransmission-
// timed, at a fixed aggregate packet rate.
//
// Each shard opens its half of the connections in shard_setup: an RtoEngine
// connection (4-segment window) plus one PacingWheel flow. Messages arrive
// at a fixed aggregate rate (seeded Poisson, each for a seeded connection)
// from a per-shard arrival schedule, generated before set-up and drained in
// shard_tick; a message is one
// 2-segment burst. A burst becomes pacing budget only while the window has
// room for it, so the window gates the flow. ACKs come back one per segment
// through the fixed-RTT delay line, so the first ACK of a burst is a
// partial ACK whose survivor re-arms through RescheduleOnShard. There is no
// rx polling and no cross-core traffic. Connections are picked uniformly
// from the million, so the working set (connection table, flow slab) is far
// beyond any cache.

#include <array>
#include <memory>
#include <string>
#include <thread>

#include "stbench/src/checks.h"
#include "stbench/src/delay_line.h"
#include "stbench/src/workloads.h"

namespace stbench {
namespace {

using softtimer::PacedEmit;
using softtimer::PacedFlowConfig;
using softtimer::PacedFlowId;
using softtimer::PacingWheel;
using softtimer::PacingWheelHost;
using softtimer::RtoEngine;
using softtimer::ShardedRtHost;
using softtimer::SoftTimerFacility;

struct Params {
  size_t connections = 1'000'000;
  // Aggregate message rate; the segment rate is twice this. It keeps each
  // shard well short of busy, so queueing does not amplify run-to-run
  // noise in the latency figures.
  double messages_per_s = 125'000;
  uint64_t flow_interval_ns = 20 * kNsPerUs;  // pacing between a flow's bursts
  uint32_t burst_segments = 2;
  uint64_t rtt_ns = 1 * kNsPerMs;
  size_t ack_line = 1 << 20;  // per shard; a full line fails the run
  // Flows start this long after host start, past the end of set-up, so no
  // flow is already overdue when the shard loops begin.
  uint64_t flow_start_delay_ns = kNsPerSec;
};

Params MakeParams(const Options& o) {
  Params p;
  if (o.smoke) {
    p.connections = 20'000;
    p.messages_per_s = 10'000;
  }
  return p;
}

struct AckEntry {
  uint32_t conn = 0;
  uint64_t seq = 0;
};

// One shard's message schedule: due time (ns after flows start) and the
// shard-local connection each message is for.
struct Arrivals {
  std::vector<uint64_t> at_ns;
  std::vector<uint32_t> conn;
};

// Covers warm-up, window and a second of slack past it, from a per-shard
// seed stream.
std::array<Arrivals, kShards> MakeArrivals(const Options& o, const Params& p) {
  std::array<Arrivals, kShards> out;
  double mean_gap = 1e9 * kShards / p.messages_per_s;
  double horizon = (o.warmup_seconds + o.seconds + 1.0) * 1e9;
  for (size_t shard = 0; shard < kShards; ++shard) {
    Rng rng(o.seed * 1'000'003 + shard);
    Arrivals& a = out[shard];
    a.at_ns.reserve(static_cast<size_t>(horizon / mean_gap * 1.1) + 16);
    a.conn.reserve(a.at_ns.capacity());
    for (double t = rng.Exp(mean_gap); t < horizon; t += rng.Exp(mean_gap)) {
      a.at_ns.push_back(static_cast<uint64_t>(t));
      a.conn.push_back(
          static_cast<uint32_t>(rng.Below(p.connections / kShards)));
    }
  }
  return out;
}

struct Conn {
  uint64_t rto_id = 0;
  PacedFlowId flow;
  uint64_t next_seq = 0;  // last sequence number sent
  uint32_t queued = 0;    // bursts waiting for window
  uint8_t granted = 0;    // bursts granted pacing budget, not yet sent
  uint8_t in_flight = 0;  // bursts sent, not yet fully ACKed
  bool flow_started = false;
};

class World;

class Shard : public PacingWheel::BatchSink {
 public:
  Shard(World* w, size_t shard);
  ~Shard() override { pacer_.Disarm(); }

  void Tick();
  void OnPacedBatch(const PacedEmit* batch, size_t count,
                    uint64_t now_tick) override;

  const PacingWheelHost& pacer() const { return pacer_; }
  const RtoEngine& rto() const { return rto_; }
  const DelayLine<AckEntry>& acks() const { return acks_; }
  const softtimer::LatencyHistogram& rto_lateness() const {
    return rto_lateness_;
  }
  const softtimer::LatencyHistogram& message_lag() const {
    return message_lag_;
  }
  const softtimer::LatencyHistogram& ack_rtt(size_t slice) const {
    return ack_rtt_[slice];
  }

  // Read by main while running.
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> acked{0};
  uint64_t window_rejects = 0;  // plain, read after Stop()
  uint64_t orphan_grants = 0;

 private:
  static void OnRetransmit(void* ctx, void* conn_ctx, uint64_t seq_end,
                           uint32_t attempt);
  static void OnRtoFireProbe(void* ctx, const SoftTimerFacility::FireInfo& i);
  void DeliverAck(const AckEntry& a, uint64_t due, uint64_t now);
  void OnMessage(uint32_t index);
  // Grants queued bursts pacing budget while the window has room.
  void Refill(Conn& c);

  World* w_;
  size_t shard_;
  PacingWheel wheel_;
  PacingWheelHost pacer_;
  RtoEngine rto_;
  DelayLine<AckEntry>& acks_;
  ShardWake wake_;
  std::vector<Conn> conns_;
  const Arrivals& arrivals_;
  size_t next_arrival_ = 0;
  softtimer::LatencyHistogram rto_lateness_;
  softtimer::LatencyHistogram message_lag_;  // pickup past the due tick
  // Send -> ACK retired, per segment: the fixed RTT plus however long the
  // ACK waited for its shard.
  std::array<softtimer::LatencyHistogram, kSlices> ack_rtt_;
};

thread_local Shard* t_shard = nullptr;

class World {
 public:
  // The benchmark's own state for one run, built before set-up is timed:
  // the ACK delay lines.
  World(const Params& p, const std::array<Arrivals, kShards>& arrivals)
      : p(p), arrivals(arrivals) {
    for (size_t i = 0; i < kShards; ++i) {
      acks.emplace_back(p.ack_line);
    }
  }

  // The timed set-up: builds and starts the host; each shard opens its
  // connections and their flows in shard_setup.
  void StartHost() {
    ShardedRtHost::Config hc = BaseHostConfig();
    hc.shard_setup = [this](size_t shard) {
      shards[shard] = std::make_unique<Shard>(this, shard);
      t_shard = shards[shard].get();
      reg.RegisterCurrentThread(shard);
    };
    hc.shard_tick = [](size_t) { t_shard->Tick(); };
    host = std::make_unique<ShardedRtHost>(std::move(hc));
    flows_start_tick = host->clock().NowTicks() + p.flow_start_delay_ns;
    host->Start();
    reg.WaitAllRegistered();
    tick_offset = MonoNs() - host->clock().NowTicks();
  }

  ~World() {
    host->Stop();
    for (auto& s : shards) {
      s.reset();
    }
  }

  uint64_t NowTick() const { return host->clock().NowTicks(); }

  OpCounts Ops() const {
    OpCounts c;
    for (const auto& s : shards) {
      // ordering: monotonic progress counters; nothing else is read from
      // them.
      c.offered += s->sent.load(std::memory_order_relaxed);
      c.completed += s->acked.load(std::memory_order_relaxed);
    }
    return c;
  }

  const Params& p;
  const std::array<Arrivals, kShards>& arrivals;
  std::vector<DelayLine<AckEntry>> acks;  // per shard
  ShardRegistry reg;
  std::array<std::unique_ptr<Shard>, kShards> shards;
  std::unique_ptr<ShardedRtHost> host;
  uint64_t flows_start_tick = 0;
  uint64_t tick_offset = 0;  // MonoNs() - host tick
  // Set by main once the window ends: no new messages are taken.
  std::atomic<bool> stopping{false};
};

Shard::Shard(World* w, size_t shard)
    : w_(w),
      shard_(shard),
      wheel_(DefaultWheelConfig()),
      pacer_(&w->host->runtime().shard_facility(shard), &wheel_),
      rto_(&w->host->runtime(), nullptr, DefaultRtoConfig(shard)),
      acks_(w->acks[shard]),
      wake_(&w->host->runtime(), shard),
      conns_(w->p.connections / kShards),
      arrivals_(w->arrivals[shard]) {
  pacer_.set_sink(this);
  rto_.set_retransmit_hook(&Shard::OnRetransmit, this);
  rto_.set_fire_probe(&Shard::OnRtoFireProbe, this);
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.rto_id = rto_.OpenConnection(&c);
    PacedFlowConfig fc;
    fc.target_interval_ticks = w->p.flow_interval_ns;
    fc.min_burst_interval_ticks = w->p.flow_interval_ns / 2;
    fc.packet_budget = 1;  // budget-gated: Refill grants each burst
    fc.user_data = i;
    c.flow = pacer_.AddFlow(fc);
  }
}

void Shard::Tick() {
  Span tick(SpanKind::kRtShardTick);
  w_->reg.OnShardTick(shard_, *w_->host);
  {
    Span s(SpanKind::kPacingPoll);
    pacer_.Poll();
  }
  uint64_t now = w_->NowTick();
  bool in_window = w_->reg.CurrentSlice() >= 0;
  const uint64_t start = w_->flows_start_tick;
  const std::vector<uint64_t>& at = arrivals_.at_ns;
  while (next_arrival_ < at.size() && start + at[next_arrival_] <= now) {
    if (in_window) {
      message_lag_.Record(now - start - at[next_arrival_]);
    }
    OnMessage(arrivals_.conn[next_arrival_++]);
  }
  acks_.Drain(now, [this, now](const AckEntry& a, uint64_t due) {
    DeliverAck(a, due, now);
  });
  uint64_t next = next_arrival_ < at.size() ? start + at[next_arrival_]
                                            : UINT64_MAX;
  wake_.ArmBy(std::min(acks_.head_due(), next), now);
}

void Shard::OnMessage(uint32_t index) {
  // ordering: a one-way stop flag; a message taken just after the flip is
  // still sent, acknowledged and drained.
  if (w_->stopping.load(std::memory_order_relaxed)) {
    return;
  }
  Conn& c = conns_[index];
  ++c.queued;
  Refill(c);
}

void Shard::Refill(Conn& c) {
  uint32_t window_bursts = softtimer::kRtoWindowSegments / w_->p.burst_segments;
  while (c.queued > 0 && c.granted + c.in_flight < window_bursts) {
    --c.queued;
    ++c.granted;
    Span s(SpanKind::kPacingActivate, c.flow.value);
    if (!c.flow_started) {
      // The flow was registered with a budget of one burst.
      pacer_.Activate(c.flow);
      c.flow_started = true;
    } else {
      pacer_.AddBudget(c.flow, 1);
    }
  }
}

void Shard::OnPacedBatch(const PacedEmit* batch, size_t count,
                         uint64_t now_tick) {
  for (size_t i = 0; i < count; ++i) {
    uint32_t index = static_cast<uint32_t>(batch[i].user_data);
    Conn& c = conns_[index];
    Span s(SpanKind::kPacingEmit, index + 1);
    if (c.granted == 0) {
      ++orphan_grants;
      continue;
    }
    --c.granted;
    ++c.in_flight;
    for (uint32_t k = 0; k < w_->p.burst_segments; ++k) {
      uint64_t seq = ++c.next_seq;
      bool ok;
      {
        Span sent_span(SpanKind::kTcpSent, index + 1);
        ok = rto_.OnSegmentSent(c.rto_id, seq);
      }
      if (!ok) {
        ++window_rejects;
        continue;
      }
      acks_.Push(now_tick + w_->p.rtt_ns, AckEntry{index, seq});
      // ordering: progress counter for main's window ledger.
      sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void Shard::OnRetransmit(void* ctx, void* conn_ctx, uint64_t seq_end,
                         uint32_t /*attempt*/) {
  auto* self = static_cast<Shard*>(ctx);
  auto* c = static_cast<Conn*>(conn_ctx);
  uint32_t index = static_cast<uint32_t>(c - self->conns_.data());
  self->acks_.Push(self->w_->NowTick() + self->w_->p.rtt_ns,
                   AckEntry{index, seq_end});
}

void Shard::OnRtoFireProbe(void* ctx, const SoftTimerFacility::FireInfo& i) {
  static_cast<Shard*>(ctx)->rto_lateness_.Record(i.lateness_ticks());
}

void Shard::DeliverAck(const AckEntry& a, uint64_t due, uint64_t now) {
  Conn& c = conns_[a.conn];
  int slice = w_->reg.CurrentSlice();
  if (slice >= 0) {
    ack_rtt_[static_cast<size_t>(slice)].Record(now - due + w_->p.rtt_ns);
  }
  size_t retired;
  {
    Span s(SpanKind::kTcpAck, a.conn + 1);
    retired = rto_.OnCumulativeAck(c.rto_id, a.seq);
  }
  if (retired == 0) {
    return;
  }
  // ordering: progress counter for main's window ledger.
  acked.fetch_add(retired, std::memory_order_relaxed);
  // A burst fully acknowledged frees one burst of window.
  if (a.seq % w_->p.burst_segments == 0) {
    --c.in_flight;
    Refill(c);
  }
}

}  // namespace

Report RunConn1m(const Options& opts) {
  Report r;
  Params p = MakeParams(opts);
  const std::array<Arrivals, kShards> arrivals = MakeArrivals(opts, p);
  std::unique_ptr<World> w = SetUpWorld<World>(r, opts, 9, p, arrivals);

  World& world = *w;
  world.reg.RegisterGeneratorThread();
  WaitUntil(world.flows_start_tick + world.tick_offset);
  std::function<OpCounts()> ops = [&world] { return world.Ops(); };
  Window win = RunWindow(world.reg, *world.host, ops, opts,
                         [](uint64_t, uint64_t) { return UINT64_MAX; });

  // Drain: stop sending, then wait until every segment sent is ACKed.
  world.stopping.store(true, std::memory_order_relaxed);
  uint64_t deadline = MonoNs() + 5 * kNsPerSec;
  for (;;) {
    OpCounts c = world.Ops();
    if (c.completed >= c.offered || MonoNs() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  world.host->Stop();

  ReportWindow(r, world.reg, win);
  ReportLateness(r, world.reg, *world.host, win);
  std::vector<softtimer::LatencyHistogram> ack_rtt(win.slices());
  std::vector<const PacingWheelHost*> pacers;
  std::vector<const RtoEngine*> engines;
  softtimer::LatencyHistogram rto_lat;
  softtimer::LatencyHistogram message_lag;
  uint64_t rejects = 0;
  for (const auto& s : world.shards) {
    for (size_t k = 0; k < ack_rtt.size(); ++k) {
      ack_rtt[k].Merge(s->ack_rtt(k));
    }
    pacers.push_back(&s->pacer());
    engines.push_back(&s->rto());
    rto_lat.Merge(s->rto_lateness());
    message_lag.Merge(s->message_lag());
    rejects += s->window_rejects + s->orphan_grants;
    for (const std::string& f :
         {CheckRtoEngine(s->rto().stats()), CheckDelayLine(s->acks().stats())}) {
      if (!f.empty()) {
        r.Fail("shard: " + f);
      }
    }
  }
  if (rejects != 0) {
    r.Fail("sends outside the window or budget: " + std::to_string(rejects));
  }
  OpCounts total = world.Ops();
  r.attempted = total.offered;
  r.failed = total.offered - std::min(total.offered, total.completed);
  // An op's latency here is its segment's send -> ACK retired time.
  std::vector<double> p50, p99;
  for (const softtimer::LatencyHistogram& h : ack_rtt) {
    p50.push_back(InterpPercentile(h, 50.0) / kNsPerMs);
    p99.push_back(InterpPercentile(h, 99.0) / kNsPerMs);
  }
  r.E2e("req_p50_ms", SliceFigure(p50), "ms");
  r.E2e("req_p99_ms", SliceFigure(p99), "ms");
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");

  NetLayerInput net;
  ReportNet(r, world.reg, net);
  ReportPacing(r, world.reg, pacers);
  ReportTcp(r, world.reg, engines, rto_lat);
  ReportCoreLayer(r, *world.host, world.reg, 0);
  ReportRtLayer(r, world.reg, win);
  r.Layer("bench.gen_lag_p99_us",
          InterpPercentile(message_lag, 99.0) / kNsPerUs, "us");
  r.notes.push_back("conn_1m: " + std::to_string(p.connections) +
                    " connections, " + std::to_string(total.offered) +
                    " segments sent, " + std::to_string(total.completed) +
                    " acked");
  if (!opts.trace_out.empty() &&
      !WriteChromeTrace(opts.trace_out, world.reg.all_traces())) {
    r.notes.push_back("could not write " + opts.trace_out);
  }
  return r;
}

}  // namespace stbench
