// web_mixed: an open loop of Poisson requests served end to end.
//
// One generator thread (the main thread) pushes request ids into 8
// benchmark-owned rx queues at their due times. Both shards serve the
// queues M-on-N through MultiQueuePoller (QueueWork). A drained request
// takes a pooled shard-local connection; its Pareto-sized response is paced
// out through the shard's PacingWheelHost, every segment is armed with
// RtoEngine::OnSegmentSent, and ACKs come back through a fixed-RTT delay
// line drained in shard_tick. A seeded ~0.2% of first transmissions are
// lost, so RTO fires and retransmits happen. A request completes when its
// last byte is acknowledged; it is timed from when it was due.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "src/core/spsc_ring.h"
#include "stbench/src/checks.h"
#include "stbench/src/delay_line.h"
#include "stbench/src/workloads.h"

namespace stbench {
namespace {

using softtimer::MultiQueuePoller;
using softtimer::PacedEmit;
using softtimer::PacedFlowConfig;
using softtimer::PacedFlowId;
using softtimer::PacingWheel;
using softtimer::PacingWheelHost;
using softtimer::RtoEngine;
using softtimer::ShardedRtHost;
using softtimer::SoftTimerFacility;

struct Params {
  double rate_per_s = 20'000;
  size_t queues = 8;
  size_t pool_per_shard = 512;
  uint32_t mss = 1460;
  double pareto_alpha = 1.2;
  uint32_t max_segments = 64;
  // Per first transmission. Chosen so ~0.6% of requests lose a segment:
  // p99 request latency then sits in the loss-free body, not on the
  // 200 ms RTO cliff, while RTO fires and retransmits still happen.
  double loss = 0.002;
  uint64_t rtt_ns = 100 * kNsPerUs;
  uint64_t flow_interval_ns = 20 * kNsPerUs;
  uint64_t flow_min_burst_ns = 10 * kNsPerUs;
  size_t rx_ring = 4096;
  // Every pending ACK belongs to a segment inside some connection's window
  // (at most one more per window for a retransmission), so a shard never
  // holds more than pool_per_shard * 2 * kRtoWindowSegments = 4096.
  size_t ack_line = 8192;
};

Params MakeParams(const Options& o) {
  Params p;
  if (o.smoke) {
    p.rate_per_s = 4'000;
    p.loss = 0.01;  // enough losses to exercise RTO in a short run
  }
  return p;
}

struct Request {
  uint64_t due_ns = 0;  // offset from the start of the warm-up
  uint32_t segments = 0;
  uint32_t last_bytes = 0;
  uint64_t loss_mask = 0;  // bit i: first transmission of segment i is lost
  uint8_t queue = 0;
};

std::vector<Request> MakeRequests(const Params& p, uint64_t seed,
                                  double seconds) {
  Rng rng(seed);
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(p.rate_per_s * seconds * 1.1) + 16);
  double t = 0;
  double mean_gap = 1e9 / p.rate_per_s;
  for (;;) {
    t += rng.Exp(mean_gap);
    if (t >= seconds * 1e9) {
      break;
    }
    Request r;
    r.due_ns = static_cast<uint64_t>(t);
    double pareto = 1.0 / std::pow(rng.Unit(), 1.0 / p.pareto_alpha);
    r.segments = static_cast<uint32_t>(
        std::min<double>(p.max_segments, std::floor(pareto)));
    r.segments = std::max<uint32_t>(r.segments, 1);
    r.last_bytes = 1 + static_cast<uint32_t>(rng.Below(p.mss));
    for (uint32_t s = 0; s < r.segments; ++s) {
      if (rng.Chance(p.loss)) {
        r.loss_mask |= 1ull << s;
      }
    }
    r.queue = static_cast<uint8_t>(rng.Below(p.queues));
    out.push_back(r);
  }
  return out;
}

// Written by the thread that owns each step; read by main after Stop().
struct RequestTimes {
  uint64_t push_tick = 0;
  uint64_t drain_tick = 0;
  uint64_t done_tick = 0;
  uint64_t delivered_bytes = 0;
};

constexpr uint32_t kNoRequest = UINT32_MAX;

class World;

struct AckEntry {
  uint32_t conn = 0;
  uint64_t seq = 0;
};

struct Conn {
  uint64_t rto_id = 0;
  PacedFlowId flow;
  uint32_t index = 0;
  bool flow_started = false;
  uint64_t next_seq = 0;  // last sequence number sent (segment units)
  // Receiver side: highest in-order segment received, plus out-of-order
  // arrivals above it (bit i = rcv_cum + 1 + i).
  uint64_t rcv_cum = 0;
  uint32_t ooo = 0;
  // Current request.
  uint32_t req = kNoRequest;
  uint64_t seq_base = 0;
  uint32_t segments = 0;
  uint32_t sent = 0;        // first transmissions so far
  uint32_t budgeted = 0;    // pacing budget granted, not yet emitted
  uint32_t unbudgeted = 0;  // segments not yet granted budget
};

class Shard : public PacingWheel::BatchSink {
 public:
  Shard(World* w, size_t shard);
  ~Shard() override { pacer_.Disarm(); }

  void Tick();
  void StartRequest(uint32_t req);
  void OnPacedBatch(const PacedEmit* batch, size_t count,
                    uint64_t now_tick) override;

  const PacingWheelHost& pacer() const { return pacer_; }
  const RtoEngine& rto() const { return rto_; }
  const DelayLine<AckEntry>& acks() const { return acks_; }
  const softtimer::LatencyHistogram& rto_lateness() const {
    return rto_lateness_;
  }

  // Read by main while running.
  std::atomic<uint64_t> completed{0};
  // Plain counters, read after Stop().
  uint64_t planned_losses = 0;
  uint64_t orphan_grants = 0;
  uint64_t window_rejects = 0;
  uint64_t pool_waits = 0;
  uint64_t empty_polls = 0;
  uint64_t poll_calls = 0;

 private:
  static void OnRetransmit(void* ctx, void* conn_ctx, uint64_t seq_end,
                           uint32_t attempt);
  static void OnRtoFireProbe(void* ctx, const SoftTimerFacility::FireInfo& i);
  void SendSegment(Conn& c, uint64_t now);
  void DeliverAck(const AckEntry& a, uint64_t now);
  void RefillBudget(Conn& c);
  void CompleteRequest(Conn& c, uint64_t now);

  World* w_;
  size_t shard_;
  PacingWheel wheel_;
  PacingWheelHost pacer_;
  RtoEngine rto_;
  DelayLine<AckEntry>& acks_;
  ShardWake wake_;
  std::vector<Conn> conns_;
  std::vector<uint32_t> free_conns_;
  std::vector<uint32_t>& waiting_;  // FIFO of requests awaiting a connection
  size_t waiting_head_ = 0;
  softtimer::LatencyHistogram rto_lateness_;
};

// A benchmark-owned rx queue: the generator is its single producer, and the
// claim protocol makes whichever shard drains it the single consumer.
class RxQueue : public MultiQueuePoller::Queue {
 public:
  RxQueue(World* w, size_t capacity) : w_(w), ring_(capacity) {}
  bool Push(uint32_t req) { return ring_.TryPush(std::move(req)); }
  size_t Drain(size_t max_packets, uint64_t now_tick) override;

 private:
  World* w_;
  softtimer::SpscRing<uint32_t> ring_;
};

thread_local Shard* t_shard = nullptr;

class World {
 public:
  // The benchmark's own state for one run, built before set-up is timed:
  // the rx queues, per-request bookkeeping, ACK delay lines and wait lists.
  World(const Params& p, const std::vector<Request>& requests)
      : p(p),
        requests(requests),
        times(requests.size()),
        poller(DefaultPollerConfig()) {
    for (size_t q = 0; q < p.queues; ++q) {
      rx.push_back(std::make_unique<RxQueue>(this, p.rx_ring));
      poller.AddQueue(rx.back().get());
    }
    for (size_t i = 0; i < kShards; ++i) {
      acks.emplace_back(p.ack_line);
      waiting[i].reserve(requests.size());
    }
  }

  // The timed set-up: builds and starts the host; each shard opens its
  // pooled connections and their flows in shard_setup.
  void StartHost() {
    ShardedRtHost::Config hc = BaseHostConfig();
    hc.queue_work.poll = [this](size_t shard, uint64_t now) -> size_t {
      Span s(SpanKind::kNetPoll);
      size_t n = poller.PollOnce(static_cast<uint32_t>(shard), now);
      ++shards[shard]->poll_calls;
      shards[shard]->empty_polls += n == 0;
      return n;
    };
    hc.queue_work.next_due = [this] { return poller.next_due_tick(); };
    hc.shard_setup = [this](size_t shard) {
      shards[shard] = std::make_unique<Shard>(this, shard);
      t_shard = shards[shard].get();
      reg.RegisterCurrentThread(shard);
    };
    hc.shard_tick = [](size_t) { t_shard->Tick(); };
    host = std::make_unique<ShardedRtHost>(std::move(hc));
    host->Start();
    reg.WaitAllRegistered();
    tick_offset = MonoNs() - host->clock().NowTicks();
  }

  ~World() {
    host->Stop();
    shards[0].reset();
    shards[1].reset();
  }

  uint64_t NowTick() const { return host->clock().NowTicks(); }
  uint64_t TickOf(uint64_t mono_ns) const { return mono_ns - tick_offset; }

  OpCounts Ops() const {
    OpCounts c;
    c.offered = pushed;
    for (const auto& s : shards) {
      // ordering: monotonic progress counter; nothing else is read from it.
      c.completed += s->completed.load(std::memory_order_relaxed);
    }
    return c;
  }

  const Params& p;
  const std::vector<Request>& requests;
  std::vector<RequestTimes> times;
  MultiQueuePoller poller;
  std::vector<std::unique_ptr<RxQueue>> rx;
  std::vector<DelayLine<AckEntry>> acks;  // per shard
  std::array<std::vector<uint32_t>, kShards> waiting;
  ShardRegistry reg;
  std::array<std::unique_ptr<Shard>, kShards> shards;
  std::unique_ptr<ShardedRtHost> host;
  uint64_t pushed = 0;  // generator-only
  uint64_t tick_offset = 0;  // MonoNs() - host tick
};

size_t RxQueue::Drain(size_t max_packets, uint64_t now_tick) {
  size_t n = 0;
  uint32_t req = 0;
  while (n < max_packets && ring_.TryPop(req)) {
    Span s(SpanKind::kNetDrain, req + 1);
    w_->times[req].drain_tick = now_tick;
    t_shard->StartRequest(req);
    ++n;
  }
  return n;
}

Shard::Shard(World* w, size_t shard)
    : w_(w),
      shard_(shard),
      wheel_(DefaultWheelConfig()),
      pacer_(&w->host->runtime().shard_facility(shard), &wheel_),
      rto_(&w->host->runtime(), nullptr, DefaultRtoConfig(shard)),
      acks_(w->acks[shard]),
      wake_(&w->host->runtime(), shard),
      conns_(w->p.pool_per_shard),
      waiting_(w->waiting[shard]) {
  pacer_.set_sink(this);
  PacingWheelHost::BatchAdapt adapt;
  adapt.achieved_quota = [w] { return w->poller.achieved_quota(); };
  pacer_.set_batch_adapt(std::move(adapt));
  rto_.set_retransmit_hook(&Shard::OnRetransmit, this);
  rto_.set_fire_probe(&Shard::OnRtoFireProbe, this);
  for (uint32_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.index = i;
    c.rto_id = rto_.OpenConnection(&c);
    PacedFlowConfig fc;
    fc.target_interval_ticks = w->p.flow_interval_ns;
    fc.min_burst_interval_ticks = w->p.flow_min_burst_ns;
    fc.packet_budget = 1;  // budget-gated: the window grants the rest
    fc.user_data = i;
    c.flow = pacer_.AddFlow(fc);
    free_conns_.push_back(i);
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
  acks_.Drain(now, [this, now](const AckEntry& a, uint64_t) {
    DeliverAck(a, now);
  });
  wake_.ArmBy(acks_.head_due(), now);
}

void Shard::StartRequest(uint32_t req) {
  if (free_conns_.empty()) {
    waiting_.push_back(req);
    ++pool_waits;
    return;
  }
  Conn& c = conns_[free_conns_.back()];
  free_conns_.pop_back();
  const Request& r = w_->requests[req];
  c.req = req;
  c.seq_base = c.next_seq;
  c.segments = r.segments;
  c.sent = 0;
  c.budgeted = 0;
  c.unbudgeted = r.segments;
  RefillBudget(c);
}

void Shard::RefillBudget(Conn& c) {
  uint32_t busy = static_cast<uint32_t>(rto_.in_flight(c.rto_id)) + c.budgeted;
  uint32_t space = busy < softtimer::kRtoWindowSegments
                       ? softtimer::kRtoWindowSegments - busy
                       : 0;
  uint32_t grant = std::min(space, c.unbudgeted);
  if (grant == 0) {
    return;
  }
  c.unbudgeted -= grant;
  c.budgeted += grant;
  Span s(SpanKind::kPacingActivate, c.req + 1);
  if (!c.flow_started) {
    // The flow was registered with a budget of one packet.
    if (grant > 1) {
      pacer_.AddBudget(c.flow, grant - 1);
    }
    pacer_.Activate(c.flow);
    c.flow_started = true;
  } else {
    pacer_.AddBudget(c.flow, grant);
  }
}

void Shard::OnPacedBatch(const PacedEmit* batch, size_t count,
                         uint64_t now_tick) {
  for (size_t i = 0; i < count; ++i) {
    Conn& c = conns_[batch[i].user_data];
    Span s(SpanKind::kPacingEmit, c.req + 1);
    for (uint32_t k = 0; k < batch[i].packets; ++k) {
      SendSegment(c, now_tick);
    }
  }
}

void Shard::SendSegment(Conn& c, uint64_t now) {
  if (c.req == kNoRequest || c.budgeted == 0) {
    ++orphan_grants;
    return;
  }
  --c.budgeted;
  uint64_t seq = ++c.next_seq;
  uint32_t segment = c.sent++;
  bool ok;
  {
    Span s(SpanKind::kTcpSent, c.req + 1);
    ok = rto_.OnSegmentSent(c.rto_id, seq);
  }
  if (!ok) {
    ++window_rejects;
    return;
  }
  const Request& r = w_->requests[c.req];
  if (segment < 64 && ((r.loss_mask >> segment) & 1) != 0) {
    ++planned_losses;
    return;
  }
  acks_.Push(now + w_->p.rtt_ns, AckEntry{c.index, seq});
}

void Shard::OnRetransmit(void* ctx, void* conn_ctx, uint64_t seq_end,
                         uint32_t /*attempt*/) {
  auto* self = static_cast<Shard*>(ctx);
  auto* c = static_cast<Conn*>(conn_ctx);
  // Retransmissions are never lost.
  self->acks_.Push(self->w_->NowTick() + self->w_->p.rtt_ns,
                   AckEntry{c->index, seq_end});
}

void Shard::OnRtoFireProbe(void* ctx, const SoftTimerFacility::FireInfo& i) {
  static_cast<Shard*>(ctx)->rto_lateness_.Record(i.lateness_ticks());
}

void Shard::DeliverAck(const AckEntry& a, uint64_t now) {
  Conn& c = conns_[a.conn];
  if (a.seq > c.rcv_cum) {
    uint64_t off = a.seq - c.rcv_cum - 1;
    if (off < 32) {
      c.ooo |= 1u << off;
    }
    while ((c.ooo & 1) != 0) {
      ++c.rcv_cum;
      c.ooo >>= 1;
    }
  }
  size_t retired;
  {
    Span s(SpanKind::kTcpAck, c.req + 1);
    retired = rto_.OnCumulativeAck(c.rto_id, c.rcv_cum);
  }
  if (c.req == kNoRequest || retired == 0) {
    return;
  }
  uint64_t acked = c.rcv_cum - c.seq_base;
  if (acked >= c.segments && rto_.in_flight(c.rto_id) == 0) {
    CompleteRequest(c, now);
  } else {
    RefillBudget(c);
  }
}

void Shard::CompleteRequest(Conn& c, uint64_t now) {
  const Request& r = w_->requests[c.req];
  RequestTimes& t = w_->times[c.req];
  t.done_tick = now;
  uint64_t acked = std::min<uint64_t>(c.rcv_cum - c.seq_base, r.segments);
  t.delivered_bytes = acked == r.segments
                          ? (acked - 1) * w_->p.mss + r.last_bytes
                          : acked * w_->p.mss;
  c.req = kNoRequest;
  free_conns_.push_back(c.index);
  // ordering: progress counter polled by main; results are read after join.
  completed.fetch_add(1, std::memory_order_relaxed);
  if (waiting_head_ < waiting_.size()) {
    StartRequest(waiting_[waiting_head_++]);
  }
}

}  // namespace

Report RunWebMixed(const Options& opts) {
  Report r;
  Params p = MakeParams(opts);
  const std::vector<Request> reqs =
      MakeRequests(p, opts.seed, opts.warmup_seconds + opts.seconds);
  std::unique_ptr<World> w = SetUpWorld<World>(r, opts, 31, p, reqs);

  World& world = *w;
  world.reg.RegisterGeneratorThread();
  softtimer::LatencyHistogram gen_lag;
  size_t next = 0;
  uint64_t t0_tick = 0;  // host tick of the warm-up start
  uint64_t ring_full_spins = 0;
  // Pushes every request due `elapsed` ns after `t0`; returns the elapsed
  // time of the next one.
  auto push_due = [&](uint64_t t0, uint64_t elapsed) -> uint64_t {
    t0_tick = world.TickOf(t0);
    while (next < reqs.size() && reqs[next].due_ns <= elapsed) {
      const Request& q = reqs[next];
      while (!world.rx[q.queue]->Push(static_cast<uint32_t>(next))) {
        ++ring_full_spins;
      }
      uint64_t now = world.NowTick();
      world.times[next].push_tick = now;
      uint64_t due = t0_tick + q.due_ns;
      gen_lag.Record(now > due ? now - due : 0);
      ++world.pushed;
      ++next;
    }
    return next < reqs.size() ? reqs[next].due_ns : UINT64_MAX;
  };
  std::function<OpCounts()> ops = [&world] { return world.Ops(); };
  uint64_t t0 = MonoNs();
  Window win = RunWindow(world.reg, *world.host, ops, opts,
                         [&](uint64_t start, uint64_t elapsed) {
                           t0 = start;
                           return push_due(start, elapsed);
                         });
  // The window closes before the generator's last wake-up, so requests due
  // just before its end may still be waiting: every one is due by now.
  push_due(t0, MonoNs() - t0);

  double achieved_quota = world.poller.achieved_quota();
  // Drain: every request must complete (a lost last segment waits out one
  // RTO of at least 200 ms).
  uint64_t deadline = MonoNs() + 5 * kNsPerSec;
  while (world.Ops().completed < world.pushed && MonoNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  world.host->Stop();

  // --- end to end ---
  ReportWindow(r, world.reg, win);
  ReportLateness(r, world.reg, *world.host, win);
  // Latency per slice (by due time), queue wait over the whole window.
  std::vector<uint64_t> cut_tick;
  for (const Snapshot& c : win.cuts) {
    cut_tick.push_back(world.TickOf(c.mono_ns));
  }
  std::vector<std::vector<uint64_t>> req_ns(win.slices());
  NetLayerInput net;
  net.poller = &world.poller;
  net.achieved_quota = achieved_quota;
  for (size_t i = 0; i < world.pushed; ++i) {
    const RequestTimes& t = world.times[i];
    uint64_t due = t0_tick + reqs[i].due_ns;
    uint64_t expected = (reqs[i].segments - 1) * uint64_t{p.mss} + reqs[i].last_bytes;
    std::string bad = CheckRequestBytes(i, expected, t.delivered_bytes);
    if (!bad.empty()) {
      ++r.failed;
      if (r.failures.size() < 5) {
        r.Fail(bad);
      }
      continue;
    }
    if (due < cut_tick.front() || due >= cut_tick.back()) {
      continue;
    }
    net.queue_wait_ns.push_back(t.drain_tick - t.push_tick);
    size_t k = static_cast<size_t>(
        std::upper_bound(cut_tick.begin(), cut_tick.end(), due) -
        cut_tick.begin() - 1);
    if (k < req_ns.size()) {
      req_ns[k].push_back(t.done_tick - due);
    }
  }
  r.attempted = reqs.size();
  r.failed += reqs.size() - world.pushed;
  std::vector<double> p50, p99;
  for (std::vector<uint64_t>& v : req_ns) {
    p50.push_back(Percentile(v, 50.0) / kNsPerMs);
    p99.push_back(Percentile(v, 99.0) / kNsPerMs);
  }
  r.E2e("req_p50_ms", SliceFigure(p50), "ms");
  r.E2e("req_p99_ms", SliceFigure(p99), "ms");
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");

  // --- correctness ---
  std::vector<const PacingWheelHost*> pacers;
  std::vector<const RtoEngine*> engines;
  softtimer::LatencyHistogram rto_lat;
  uint64_t losses = 0, orphans = 0, rejects = 0, waits = 0;
  for (const auto& s : world.shards) {
    pacers.push_back(&s->pacer());
    engines.push_back(&s->rto());
    rto_lat.Merge(s->rto_lateness());
    for (const std::string& f :
         {CheckRtoEngine(s->rto().stats()), CheckDelayLine(s->acks().stats())}) {
      if (!f.empty()) {
        r.Fail("shard: " + f);
      }
    }
    losses += s->planned_losses;
    orphans += s->orphan_grants;
    rejects += s->window_rejects;
    waits += s->pool_waits;
    net.empty_polls += s->empty_polls;
    net.poll_calls += s->poll_calls;
  }
  if (orphans != 0 || rejects != 0) {
    r.Fail("pacing grants outside the window: " + std::to_string(orphans) +
           " orphan, " + std::to_string(rejects) + " window-full");
  }

  // --- per layer ---
  ReportNet(r, world.reg, net);
  ReportPacing(r, world.reg, pacers);
  ReportTcp(r, world.reg, engines, rto_lat);
  ReportCoreLayer(r, *world.host, world.reg, 0);
  ReportRtLayer(r, world.reg, win);
  r.Layer("bench.gen_lag_p99_us", InterpPercentile(gen_lag, 99.0) / kNsPerUs,
          "us");
  r.notes.push_back("web_mixed: " + std::to_string(reqs.size()) +
                    " requests, " + std::to_string(losses) +
                    " planned segment losses, " + std::to_string(waits) +
                    " pool waits, " + std::to_string(ring_full_spins) +
                    " rx ring-full spins");
  if (!opts.trace_out.empty()) {
    if (!WriteChromeTrace(opts.trace_out, world.reg.all_traces())) {
      r.notes.push_back("could not write " + opts.trace_out);
    }
  }
  return r;
}

}  // namespace stbench
