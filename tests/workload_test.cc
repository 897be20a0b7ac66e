// Sanity bounds on the Table 1 workload models: each workload's trigger
// interval distribution must land in the neighbourhood of the paper's
// measurements (loose bounds - the tight comparison lives in
// bench_fig4_table1_trigger_intervals and EXPERIMENTS.md).

#include <gtest/gtest.h>

#include <ostream>

#include "src/stats/sample_set.h"
#include "src/workload/trigger_workload.h"

namespace softtimer {
namespace {

struct Expect {
  WorkloadKind kind;
  double mean_lo, mean_hi;
  double median_lo, median_hi;
};

// gtest prints a parameter into its ctest name; without this it would dump
// the struct's raw bytes, padding after `kind` included, and two builds
// could name the same test differently.
void PrintTo(const Expect& e, std::ostream* os) {
  *os << WorkloadKindName(e.kind) << " mean " << e.mean_lo << " to "
      << e.mean_hi << " median " << e.median_lo << " to " << e.median_hi;
}

class WorkloadDistribution : public ::testing::TestWithParam<Expect> {};

TEST_P(WorkloadDistribution, IntervalStatsInPaperNeighbourhood) {
  const Expect& e = GetParam();
  auto wl = MakeTriggerWorkload(e.kind, MachineProfile::PentiumII300(), /*seed=*/42);
  SampleSet samples(400'000);
  wl->kernel().set_trigger_observer(
      [&](TriggerSource, SimTime, SimDuration d) { samples.Add(d.ToMicros()); });
  wl->Start();
  while (samples.count() < 60'000 && wl->sim().now() < SimTime::Zero() + SimDuration::Seconds(20)) {
    wl->sim().RunFor(SimDuration::Millis(100));
  }
  ASSERT_GE(samples.count(), 10'000u) << wl->name();
  EXPECT_GE(samples.mean(), e.mean_lo) << wl->name();
  EXPECT_LE(samples.mean(), e.mean_hi) << wl->name();
  EXPECT_GE(samples.Median(), e.median_lo) << wl->name();
  EXPECT_LE(samples.Median(), e.median_hi) << wl->name();
  // The 1 kHz backup interrupt bounds every gap at <= ~1 ms.
  EXPECT_LE(samples.max(), 1050.0) << wl->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadDistribution,
    ::testing::Values(Expect{WorkloadKind::kApache, 22, 38, 13, 24},          // paper: 31.5 / 18
                      Expect{WorkloadKind::kApacheCompute, 22, 40, 13, 24},   // 31.6 / 18
                      Expect{WorkloadKind::kFlash, 16, 30, 11, 22},           // 22.5 / 17
                      Expect{WorkloadKind::kRealAudio, 6, 12, 4, 9},          // 8.5 / 6
                      Expect{WorkloadKind::kNfs, 1.5, 3.5, 1, 3},             // 2.1 / 2
                      Expect{WorkloadKind::kKernelBuild, 4, 9, 1, 4}),        // 5.6 / 2
    [](const ::testing::TestParamInfo<Expect>& info) {
      std::string n = WorkloadKindName(info.param.kind);
      std::string out;
      for (char c : n) {
        if (c != '-') {
          out += c;
        }
      }
      return out;
    });

TEST(WorkloadTest, XeonSpeedsUpApacheTriggerRate) {
  auto slow = MakeTriggerWorkload(WorkloadKind::kApache, MachineProfile::PentiumII300(), 42);
  auto fast = MakeTriggerWorkload(WorkloadKind::kApache, MachineProfile::PentiumIII500Xeon(), 42);
  SummaryStats s_slow, s_fast;
  slow->kernel().set_trigger_observer(
      [&](TriggerSource, SimTime, SimDuration d) { s_slow.Add(d.ToMicros()); });
  fast->kernel().set_trigger_observer(
      [&](TriggerSource, SimTime, SimDuration d) { s_fast.Add(d.ToMicros()); });
  slow->Start();
  fast->Start();
  slow->sim().RunFor(SimDuration::Seconds(1));
  fast->sim().RunFor(SimDuration::Seconds(1));
  // Table 1: the mean drops roughly with the clock-speed ratio (1.67).
  double ratio = s_slow.mean() / s_fast.mean();
  EXPECT_GT(ratio, 1.25);
  EXPECT_LT(ratio, 2.0);
}

TEST(WorkloadTest, ApacheSourceMixMatchesTable2Ordering) {
  auto wl = MakeTriggerWorkload(WorkloadKind::kApache, MachineProfile::PentiumII300(), 42);
  wl->Start();
  wl->sim().RunFor(SimDuration::Seconds(1));
  const auto& by = wl->kernel().stats().triggers_by_source;
  uint64_t syscalls = by[static_cast<size_t>(TriggerSource::kSyscall)];
  uint64_t ipout = by[static_cast<size_t>(TriggerSource::kIpOutput)];
  uint64_t ipintr = by[static_cast<size_t>(TriggerSource::kIpIntr)];
  uint64_t tcpip = by[static_cast<size_t>(TriggerSource::kTcpIpOthers)];
  uint64_t traps = by[static_cast<size_t>(TriggerSource::kTrap)];
  // Table 2 ordering: syscalls > ip-output, ip-intr > tcpip-others > traps.
  EXPECT_GT(syscalls, ipout);
  EXPECT_GT(ipout, tcpip);
  EXPECT_GT(ipintr, tcpip);
  EXPECT_GT(tcpip, traps);
  EXPECT_GT(traps, 0u);
}

TEST(WorkloadTest, StochasticAlternativeMatchesMechanisticRegimes) {
  // The fitted-distribution generators land in the same neighbourhoods as
  // the mechanistic substrates for the non-web workloads.
  struct Row {
    WorkloadKind kind;
    double mean_lo, mean_hi;
  };
  for (const Row& r : {Row{WorkloadKind::kNfs, 1.5, 3.5},
                       Row{WorkloadKind::kRealAudio, 6, 12},
                       Row{WorkloadKind::kKernelBuild, 4, 9}}) {
    auto wl = MakeStochasticTriggerWorkload(r.kind, MachineProfile::PentiumII300(), 42);
    SummaryStats s;
    wl->kernel().set_trigger_observer(
        [&](TriggerSource, SimTime, SimDuration d) { s.Add(d.ToMicros()); });
    wl->Start();
    wl->sim().RunFor(SimDuration::Seconds(1));
    EXPECT_GE(s.mean(), r.mean_lo) << wl->name();
    EXPECT_LE(s.mean(), r.mean_hi) << wl->name();
  }
}

TEST(WorkloadTest, NfsIsMostlyIdleLoopTriggers) {
  auto wl = MakeTriggerWorkload(WorkloadKind::kNfs, MachineProfile::PentiumII300(), 42);
  wl->Start();
  wl->sim().RunFor(SimDuration::Seconds(1));
  const auto& s = wl->kernel().stats();
  uint64_t idle = s.triggers_by_source[static_cast<size_t>(TriggerSource::kIdleLoop)];
  EXPECT_GT(static_cast<double>(idle), 0.7 * static_cast<double>(s.triggers));
}

}  // namespace
}  // namespace softtimer
