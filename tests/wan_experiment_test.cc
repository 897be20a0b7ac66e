// Integration tests asserting the structural invariants behind Tables 6/7 -
// the claims the WAN bench relies on, as regression-guarded properties.

#include <gtest/gtest.h>

#include "src/machine/kernel.h"
#include "src/net/wan_path.h"
#include "src/stats/summary_stats.h"
#include "src/tcp/tcp_receiver.h"
#include "src/tcp/tcp_sender.h"

namespace softtimer {
namespace {

struct WanRun {
  double response_ms = -1;
  uint64_t segments_sent = 0;
};

WanRun RunWan(double bottleneck_bps, uint64_t packets, bool rate_based,
           SimDuration one_way = SimDuration::Millis(50)) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_fast_forward = true;
  Kernel kernel(&sim, kc);
  WanPath::Config wc;
  wc.bottleneck_bps = bottleneck_bps;
  wc.one_way_delay = one_way;
  WanPath wan(&sim, wc);

  TcpSender::Config sc;
  sc.mode = rate_based ? TcpSender::Mode::kRateBased : TcpSender::Mode::kSelfClocked;
  sc.rwnd_bytes = 1 << 20;
  double wire_bits = (kDefaultMss + kTcpIpHeaderBytes) * 8.0;
  sc.pace_target_interval_ticks = static_cast<uint64_t>(wire_bits / bottleneck_bps * 1e6 + 0.5);
  sc.pace_min_burst_interval_ticks = sc.pace_target_interval_ticks;
  TcpSender sender(&kernel, sc);
  TcpReceiver receiver(&sim, TcpReceiver::Config{});

  sender.set_packet_sender([&](Packet p) { wan.forward().Send(p); });
  wan.forward().set_receiver([&](const Packet& p) { receiver.OnSegment(p); });
  receiver.set_ack_sender([&](Packet p) { wan.reverse().Send(p); });
  wan.reverse().set_receiver([&](const Packet& p) { sender.OnAck(p); });

  uint64_t bytes = packets * kDefaultMss;
  WanRun out;
  receiver.NotifyWhenReceived(bytes, [&] { out.response_ms = sim.now().ToSeconds() * 1e3; });
  sim.ScheduleAt(SimTime::Zero() + one_way, [&] { sender.StartTransfer(bytes); });
  sim.RunUntil(SimTime::Zero() + SimDuration::Seconds(60));
  out.segments_sent = sender.stats().segments_sent;
  return out;
}

TEST(WanExperimentTest, RateBasedResponseIsRttPlusPacedTransmission) {
  // resp ~= one-way (request) + N * pace + one-way (delivery).
  WanRun r = RunWan(50e6, 100, /*rate_based=*/true);
  double expected_ms = 50 + 100 * 0.240 + 50;
  EXPECT_GT(r.response_ms, 0);
  EXPECT_NEAR(r.response_ms, expected_ms, 3.0);
}

TEST(WanExperimentTest, RegularTcpPaysSlowStartRounds) {
  // 100 segments from cwnd 1 with delayed ACKs needs many RTTs: response far
  // above the paced transfer's, and at least 8 round trips.
  WanRun r = RunWan(50e6, 100, /*rate_based=*/false);
  EXPECT_GT(r.response_ms, 8 * 100.0);
  EXPECT_LT(r.response_ms, 16 * 100.0);
}

TEST(WanExperimentTest, AdvantageShrinksWithTransferSize) {
  double red_small = 1.0 - RunWan(50e6, 100, true).response_ms / RunWan(50e6, 100, false).response_ms;
  double red_large =
      1.0 - RunWan(50e6, 20'000, true).response_ms / RunWan(50e6, 20'000, false).response_ms;
  EXPECT_GT(red_small, 0.8);   // ~89% in the paper
  EXPECT_LT(red_large, 0.45);  // the crossover direction of Tables 6/7
  EXPECT_GT(red_large, 0.0);   // but rate-based never loses here
}

TEST(WanExperimentTest, LargeTransferApproachesBottleneckEitherWay) {
  WanRun reg = RunWan(50e6, 30'000, false);
  WanRun rbc = RunWan(50e6, 30'000, true);
  double reg_mbps = 30'000.0 * kDefaultMss * 8 / (reg.response_ms / 1e3) / 1e6;
  double rbc_mbps = 30'000.0 * kDefaultMss * 8 / (rbc.response_ms / 1e3) / 1e6;
  EXPECT_GT(reg_mbps, 35.0);
  EXPECT_GT(rbc_mbps, 44.0);
  EXPECT_LT(rbc_mbps, 50.0);  // cannot beat the wire
}

TEST(WanExperimentTest, NoRetransmissionsOnTheCleanPath) {
  WanRun r = RunWan(100e6, 5'000, false);
  EXPECT_EQ(r.segments_sent, 5'000u);  // window-limited, loss-free
}

TEST(WanExperimentTest, HigherBottleneckSpeedsPacedTransfer) {
  double t50 = RunWan(50e6, 1'000, true).response_ms;
  double t100 = RunWan(100e6, 1'000, true).response_ms;
  EXPECT_LT(t100, t50);
  // Transmission phase halves; RTT component stays.
  EXPECT_NEAR((t50 - 100) / (t100 - 100), 2.0, 0.2);
}

TEST(WanExperimentTest, PacingPrecisionFromIdleLoop) {
  // The otherwise-idle sender's pacing jitter comes only from the ~2 us idle
  // poll interval: achieved spacing within a few percent of the target.
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_fast_forward = true;
  Kernel kernel(&sim, kc);
  TcpSender::Config sc;
  sc.mode = TcpSender::Mode::kRateBased;
  sc.pace_target_interval_ticks = 240;
  sc.pace_min_burst_interval_ticks = 240;
  TcpSender sender(&kernel, sc);
  SummaryStats gaps;
  SimTime last;
  bool have_last = false;
  sender.set_packet_sender([&](Packet) {
    if (have_last) {
      gaps.Add((sim.now() - last).ToMicros());
    }
    last = sim.now();
    have_last = true;
  });
  sender.StartTransfer(500 * kDefaultMss);
  sim.RunUntil(SimTime::Zero() + SimDuration::Seconds(1));
  ASSERT_GT(gaps.count(), 400u);
  EXPECT_NEAR(gaps.mean(), 240.0, 6.0);
  EXPECT_LT(gaps.stddev(), 20.0);
}

}  // namespace
}  // namespace softtimer
