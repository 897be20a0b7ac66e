// timer_fanout: the paper's bare facility, driven across cores.
//
// One producer (the main thread) schedules soft timers onto two otherwise
// idle shards through the runtime's cross-core rings, as an open loop at a
// fixed rate. Deadlines are log-uniform over 10 us - 1 ms. A seeded half are
// cancelled with CancelCrossCore before they are due and a seeded fifth are
// re-armed with RescheduleCrossCore, so cross-core rings, eventcount
// sleep/wake and the backup bound sit on the critical path. Every timer
// resolves exactly once: it fires, or a cancel hits it.

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "stbench/src/checks.h"
#include "stbench/src/workloads.h"

namespace stbench {
namespace {

using softtimer::ShardedRtHost;
using softtimer::ShardedSoftTimerRuntime;
using softtimer::SoftEventId;
using softtimer::SoftTimerFacility;

struct Params {
  double rate_per_s = 50'000;
  double min_delay_ns = 10'000;
  double max_delay_ns = 1'000'000;
  double cancel_p = 0.5;
  double rearm_p = 0.2;
};

Params MakeParams(const Options& o) {
  Params p;
  if (o.smoke) {
    p.rate_per_s = 5'000;
  }
  return p;
}

enum class OpKind : uint8_t { kSchedule, kRearm, kCancel };

struct Op {
  uint64_t at_ns = 0;  // offset from the start of the warm-up
  uint32_t timer = 0;
  OpKind kind = OpKind::kSchedule;
  uint64_t delay_ns = 0;  // schedule / re-arm delay
};

struct Timer {
  uint64_t scheduled_at_ns = 0;  // due time of its schedule op
  uint8_t shard = 0;
  bool cancelled_op = false;  // a cancel is sent for this timer
};

struct Inputs {
  std::vector<Timer> timers;
  std::vector<Op> ops;  // sorted by at_ns
};

Inputs MakeInputs(const Params& p, uint64_t seed, double seconds) {
  Rng rng(seed);
  Inputs in;
  double t = 0;
  double gap = 1e9 / p.rate_per_s;
  // A fraction of the delay, so a follow-up op lands before the deadline.
  auto before = [&rng](uint64_t delay) {
    return static_cast<uint64_t>(static_cast<double>(delay) *
                                 (0.2 + 0.6 * rng.Unit()));
  };
  for (;;) {
    t += rng.Exp(gap);
    if (t >= seconds * 1e9) {
      break;
    }
    auto id = static_cast<uint32_t>(in.timers.size());
    auto at = static_cast<uint64_t>(t);
    Timer tm;
    tm.scheduled_at_ns = at;
    tm.shard = static_cast<uint8_t>(rng.Below(kShards));
    auto delay =
        static_cast<uint64_t>(rng.LogUniform(p.min_delay_ns, p.max_delay_ns));
    in.ops.push_back(Op{at, id, OpKind::kSchedule, delay});
    if (rng.Chance(p.rearm_p)) {
      at += before(delay);
      delay =
          static_cast<uint64_t>(rng.LogUniform(p.min_delay_ns, p.max_delay_ns));
      in.ops.push_back(Op{at, id, OpKind::kRearm, delay});
    }
    if (rng.Chance(p.cancel_p)) {
      tm.cancelled_op = true;
      in.ops.push_back(Op{at + before(delay), id, OpKind::kCancel, 0});
    }
    in.timers.push_back(tm);
  }
  std::stable_sort(in.ops.begin(), in.ops.end(),
                   [](const Op& a, const Op& b) { return a.at_ns < b.at_ns; });
  return in;
}

// Per timer, written by the shard thread that fires it; read after Stop().
struct FireRecord {
  uint64_t fired_tick = 0;
  uint32_t fires = 0;
};

class World {
 public:
  // The benchmark's per-timer bookkeeping, built before set-up is timed.
  explicit World(const Inputs& in)
      : in(in),
        fires(in.timers.size()),
        ids(in.timers.size()),
        cancel_tick(in.timers.size(), 0) {}

  // The timed set-up: builds and starts the host.
  void StartHost() {
    ShardedRtHost::Config hc = BaseHostConfig();
    hc.shard_setup = [this](size_t shard) { reg.RegisterCurrentThread(shard); };
    hc.shard_tick = [this](size_t shard) {
      Span tick(SpanKind::kRtShardTick);
      reg.OnShardTick(shard, *host);
    };
    host = std::make_unique<ShardedRtHost>(std::move(hc));
    host->Start();
    reg.WaitAllRegistered();
  }

  ~World() { host->Stop(); }

  void OnFire(uint32_t timer, const SoftTimerFacility::FireInfo& info) {
    FireRecord& f = fires[timer];
    f.fired_tick = info.fired_tick;
    ++f.fires;
  }

  // Completed ops are filled in after the run from the exact per-timer
  // ledger (a cancel's hit or miss is only known once the shard applied it).
  OpCounts Ops() const { return OpCounts{scheduled, 0}; }

  const Inputs& in;
  std::vector<FireRecord> fires;
  std::vector<SoftEventId> ids;      // producer-only
  std::vector<uint64_t> cancel_tick;  // producer-only
  ShardRegistry reg;
  std::unique_ptr<ShardedRtHost> host;
  uint64_t scheduled = 0;       // producer-only
  uint64_t cancels_sent = 0;  // producer-only
  uint64_t schedule_failures = 0;
  uint64_t command_retries = 0;  // full-ring cancel/re-arm pushes retried
};

}  // namespace

Report RunTimerFanout(const Options& opts) {
  Report r;
  Params p = MakeParams(opts);
  const Inputs in =
      MakeInputs(p, opts.seed, opts.warmup_seconds + opts.seconds);
  std::unique_ptr<World> w = SetUpWorld<World>(r, opts, 31, in);

  World& world = *w;
  world.reg.RegisterGeneratorThread();
  ShardedSoftTimerRuntime& rt = world.host->runtime();
  ShardedSoftTimerRuntime::ProducerToken token = world.host->RegisterProducer();
  const std::vector<Op>& ops = world.in.ops;
  softtimer::LatencyHistogram gen_lag;
  size_t next = 0;
  uint64_t t0 = 0;  // MonoNs of the warm-up start
  // Sends every op due `elapsed` ns after `start`; returns the elapsed
  // time of the next op.
  auto send_ops = [&](uint64_t start, uint64_t elapsed) -> uint64_t {
    t0 = start;
    while (next < ops.size() && ops[next].at_ns <= elapsed) {
      const Op& op = ops[next++];
      uint64_t late = MonoNs() - t0;
      gen_lag.Record(late > op.at_ns ? late - op.at_ns : 0);
      uint32_t i = op.timer;
      if (op.kind == OpKind::kSchedule) {
        World* wp = &world;
        SoftEventId id;
        {
          Span s(SpanKind::kCoreSchedule, i + 1);
          id = rt.ScheduleCrossCoreWithRetry(
              token, world.in.timers[i].shard, op.delay_ns,
              [wp, i](const SoftTimerFacility::FireInfo& info) {
                wp->OnFire(i, info);
              });
        }
        world.ids[i] = id;
        if (id.valid()) {
          ++world.scheduled;
        } else {
          ++world.schedule_failures;
        }
        continue;
      }
      if (!world.ids[i].valid()) {
        continue;  // its schedule was refused (counted above)
      }
      if (op.kind == OpKind::kRearm) {
        Span s(SpanKind::kCoreReschedule, i + 1);
        while (!rt.RescheduleCrossCore(token, world.ids[i], op.delay_ns)) {
          ++world.command_retries;
          std::this_thread::yield();
        }
      } else {
        Span s(SpanKind::kCoreCancel, i + 1);
        while (!rt.CancelCrossCore(token, world.ids[i])) {
          ++world.command_retries;
          std::this_thread::yield();
        }
        world.cancel_tick[i] = world.host->clock().NowTicks();
        ++world.cancels_sent;
      }
    }
    return next < ops.size() ? ops[next].at_ns : UINT64_MAX;
  };
  std::function<OpCounts()> counts = [&world] { return world.Ops(); };
  Window win = RunWindow(world.reg, *world.host, counts, opts, send_ops);
  // Follow-up ops of timers scheduled inside the window land up to ~2 ms
  // after it; send them on time, then let the last deadlines pass.
  while (next < ops.size()) {
    WaitUntil(t0 + ops[next].at_ns);
    send_ops(t0, MonoNs() - t0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  world.host->Stop();

  // Exact completed-op ledger: a timer resolves when it fires, or when the
  // cancel that hit it was sent.
  uint64_t tick_offset = MonoNs() - world.host->clock().NowTicks();
  std::vector<uint64_t> cut_tick;
  for (const Snapshot& c : win.cuts) {
    cut_tick.push_back(c.mono_ns - tick_offset);
  }
  // An op's latency here is its timer's due -> resolved time: from when
  // its schedule was due to its fire, or to the send of the cancel that hit
  // it. Filed under the slice its schedule was due in.
  uint64_t t0_tick = t0 - tick_offset;
  std::vector<uint64_t> resolved;
  std::vector<std::vector<uint64_t>> req_ns(win.slices());
  uint64_t fired = 0, twice = 0, unresolved = 0;
  for (size_t i = 0; i < world.in.timers.size(); ++i) {
    if (!world.ids[i].valid()) {
      continue;
    }
    const FireRecord& f = world.fires[i];
    fired += f.fires;
    twice += f.fires > 1;
    uint64_t done;
    if (f.fires > 0) {
      done = f.fired_tick;
    } else if (world.in.timers[i].cancelled_op) {
      done = world.cancel_tick[i];
    } else {
      ++unresolved;
      continue;
    }
    resolved.push_back(done);
    uint64_t due = t0_tick + world.in.timers[i].scheduled_at_ns;
    if (due >= cut_tick.front() && due < cut_tick.back()) {
      size_t k = static_cast<size_t>(
          std::upper_bound(cut_tick.begin(), cut_tick.end(), due) -
          cut_tick.begin() - 1);
      if (k < req_ns.size()) {
        req_ns[k].push_back(done - due);
      }
    }
  }
  std::sort(resolved.begin(), resolved.end());
  for (Snapshot& s : win.cuts) {
    uint64_t tick = s.mono_ns - tick_offset;
    s.ops.completed = static_cast<uint64_t>(
        std::upper_bound(resolved.begin(), resolved.end(), tick) -
        resolved.begin());
  }

  uint64_t cancelled = 0;
  for (size_t i = 0; i < kShards; ++i) {
    cancelled += rt.shard_stats(i).remote_cancelled;
  }
  for (const std::string& f :
       {CheckTimerConservation(world.scheduled, fired, cancelled)}) {
    if (!f.empty()) {
      r.Fail(f);
    }
  }
  if (twice != 0) {
    r.Fail(std::to_string(twice) + " timers fired more than once");
  }
  if (unresolved != 0) {
    r.Fail(std::to_string(unresolved) + " timers neither fired nor cancelled");
  }
  r.attempted = world.in.timers.size();
  r.failed = world.schedule_failures + unresolved;

  ReportWindow(r, world.reg, win);
  ReportLateness(r, world.reg, *world.host, win);
  std::vector<double> p50, p99;
  for (std::vector<uint64_t>& v : req_ns) {
    p50.push_back(Percentile(v, 50.0) / kNsPerMs);
    p99.push_back(Percentile(v, 99.0) / kNsPerMs);
  }
  r.E2e("req_p50_ms", SliceFigure(p50), "ms");
  r.E2e("req_p99_ms", SliceFigure(p99), "ms");
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");

  NetLayerInput net;
  ReportNet(r, world.reg, net);
  ReportPacing(r, world.reg, {});
  ReportTcp(r, world.reg, {}, softtimer::LatencyHistogram{});
  ReportCoreLayer(r, *world.host, world.reg, token.ring_full_rejects());
  ReportRtLayer(r, world.reg, win);
  r.Layer("bench.gen_lag_p99_us", InterpPercentile(gen_lag, 99.0) / kNsPerUs,
          "us");
  r.notes.push_back("timer_fanout: " + std::to_string(world.scheduled) +
                    " scheduled, " + std::to_string(fired) + " fired, " +
                    std::to_string(cancelled) + " cancelled, " +
                    std::to_string(world.command_retries) +
                    " command retries");
  if (!opts.trace_out.empty() &&
      !WriteChromeTrace(opts.trace_out, world.reg.all_traces())) {
    r.notes.push_back("could not write " + opts.trace_out);
  }
  return r;
}

}  // namespace stbench
