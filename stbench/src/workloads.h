// The three workloads. Each builds its inputs from the seed, sets up (and
// times) its host, runs the measured window, drains, checks correctness
// and fills a Report.

#ifndef STBENCH_SRC_WORKLOADS_H_
#define STBENCH_SRC_WORKLOADS_H_

#include <vector>

#include "src/core/poll_governor.h"
#include "src/net/multi_queue_poller.h"
#include "src/pacing/pacing_wheel_host.h"
#include "src/tcp/rto_engine.h"
#include "stbench/src/common.h"
#include "stbench/src/harness.h"

namespace stbench {

Report RunWebMixed(const Options& opts);
Report RunConn1m(const Options& opts);
Report RunTimerFanout(const Options& opts);

// --- library defaults carried onto the nanosecond clock ---------------
// Only tick-valued fields are touched (see kDefaultTickScale); everything
// else, including the timer-queue kind, stays the library default, so a
// later change of a default is measured without editing the benchmark.
softtimer::PacingWheel::Config DefaultWheelConfig();
softtimer::RtoEngine::Config DefaultRtoConfig(size_t shard);
softtimer::MultiQueuePoller::Config DefaultPollerConfig();

// --- per-layer reports shared by the workloads ------------------------
// Each takes whatever instances of the layer the workload ran (none when
// the layer is absent, which reports zeros: the layer-separation proof).
struct NetLayerInput {
  const softtimer::MultiQueuePoller* poller = nullptr;
  // MultiQueuePoller::achieved_quota sampled as the window closes (read
  // later, it has decayed over the idle drain).
  double achieved_quota = 0;
  uint64_t empty_polls = 0;             // QueueWork.poll calls draining 0
  uint64_t poll_calls = 0;
  std::vector<uint64_t> queue_wait_ns;  // rx enqueue -> drain, per request
};
void ReportNet(Report& r, const ShardRegistry& reg, NetLayerInput& in);
void ReportPacing(Report& r, const ShardRegistry& reg,
                  const std::vector<const softtimer::PacingWheelHost*>& hosts);
void ReportTcp(Report& r, const ShardRegistry& reg,
               const std::vector<const softtimer::RtoEngine*>& engines,
               const softtimer::LatencyHistogram& rto_lateness);

}  // namespace stbench

#endif  // STBENCH_SRC_WORKLOADS_H_
