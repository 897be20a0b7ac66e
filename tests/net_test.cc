// Tests for the network substrate: Link (serialization, propagation,
// drop-tail), WanPath, Nic (interrupt vs polled rx, tx-complete coalescing),
// and the SoftTimerNetPoller's mode switching.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/core/clock_source.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/machine/kernel.h"
#include "src/net/link.h"
#include "src/net/nic.h"
#include "src/net/soft_timer_net_poller.h"
#include "src/net/wan_path.h"

namespace softtimer {
namespace {

Packet DataPacket(uint64_t id, uint32_t bytes) {
  Packet p;
  p.id = id;
  p.kind = Packet::Kind::kData;
  p.size_bytes = bytes;
  return p;
}

TEST(LinkTest, SerializationPlusPropagation) {
  Simulator sim;
  Link::Config cfg;
  cfg.bandwidth_bps = 100e6;  // 1500 B = 120 us
  cfg.propagation_delay = SimDuration::Micros(5);
  Link link(&sim, cfg);
  SimTime arrival;
  link.set_receiver([&](const Packet&) { arrival = sim.now(); });
  link.Send(DataPacket(1, 1500));
  sim.RunUntilIdle();
  EXPECT_EQ(arrival.nanos_since_origin(), 125'000);
  EXPECT_EQ(link.stats().sent, 1u);
  EXPECT_EQ(link.stats().bytes_sent, 1500u);
}

TEST(LinkTest, BackToBackPacketsQueueBehindSerializer) {
  Simulator sim;
  Link::Config cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation_delay = SimDuration::Zero();
  Link link(&sim, cfg);
  std::vector<int64_t> arrivals;
  link.set_receiver([&](const Packet&) { arrivals.push_back(sim.now().nanos_since_origin()); });
  link.Send(DataPacket(1, 1500));
  link.Send(DataPacket(2, 1500));
  link.Send(DataPacket(3, 1500));
  sim.RunUntilIdle();
  EXPECT_EQ(arrivals, (std::vector<int64_t>{120'000, 240'000, 360'000}));
}

TEST(LinkTest, DropTailWhenQueueFull) {
  Simulator sim;
  Link::Config cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.queue_limit_packets = 2;
  Link link(&sim, cfg);
  int received = 0;
  link.set_receiver([&](const Packet&) { ++received; });
  EXPECT_TRUE(link.Send(DataPacket(1, 1500)));
  EXPECT_TRUE(link.Send(DataPacket(2, 1500)));
  EXPECT_FALSE(link.Send(DataPacket(3, 1500)));  // dropped
  sim.RunUntilIdle();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(link.stats().dropped, 1u);
  // Queue drained: sending works again.
  EXPECT_TRUE(link.Send(DataPacket(4, 1500)));
  sim.RunUntilIdle();
  EXPECT_EQ(received, 3);
}

TEST(WanPathTest, BothDirectionsDelay) {
  Simulator sim;
  WanPath::Config cfg;
  cfg.bottleneck_bps = 50e6;
  cfg.one_way_delay = SimDuration::Millis(50);
  WanPath wan(&sim, cfg);
  SimTime fwd_arrival, rev_arrival;
  wan.forward().set_receiver([&](const Packet&) { fwd_arrival = sim.now(); });
  wan.reverse().set_receiver([&](const Packet&) { rev_arrival = sim.now(); });
  wan.forward().Send(DataPacket(1, 1500));  // 240 us serialization
  wan.reverse().Send(DataPacket(2, 40));
  sim.RunUntilIdle();
  EXPECT_EQ(fwd_arrival.nanos_since_origin(), 50'240'000);
  EXPECT_NEAR(static_cast<double>(rev_arrival.nanos_since_origin()), 50'006'400, 100);
}

class NicFixture : public ::testing::Test {
 protected:
  NicFixture() {
    Kernel::Config kc;
    kc.profile = MachineProfile::PentiumII300();
    kc.idle_poll_jitter_sigma = 0;
    kernel_ = std::make_unique<Kernel>(&sim_, kc);
    Link::Config lc;
    tx_link_ = std::make_unique<Link>(&sim_, lc);
    nic_ = std::make_unique<Nic>(&sim_, kernel_.get(), tx_link_.get(), Nic::Config{});
    nic_->set_rx_handler([this](const Packet& p) { delivered_.push_back(p.id); });
    // Keep the CPU busy so steals/interrupts are measurable against it.
    kernel_->cpu(0).Submit(SimDuration::Seconds(10));
  }

  Simulator sim_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<Link> tx_link_;
  std::unique_ptr<Nic> nic_;
  std::vector<uint64_t> delivered_;
};

TEST_F(NicFixture, InterruptModeDeliversImmediatelyWithIpIntrTrigger) {
  uint64_t before = kernel_->stats().triggers_by_source[static_cast<size_t>(TriggerSource::kIpIntr)];
  nic_->OnWireRx(DataPacket(7, 1500));
  EXPECT_EQ(delivered_, (std::vector<uint64_t>{7}));
  EXPECT_EQ(nic_->stats().rx_interrupts, 1u);
  EXPECT_EQ(
      kernel_->stats().triggers_by_source[static_cast<size_t>(TriggerSource::kIpIntr)],
      before + 1);
}

TEST_F(NicFixture, PolledModeBuffersUntilPoll) {
  nic_->SetMode(Nic::Mode::kPolled);
  nic_->OnWireRx(DataPacket(1, 1500));
  nic_->OnWireRx(DataPacket(2, 1500));
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(nic_->rx_ring_depth(), 2u);
  EXPECT_EQ(nic_->Poll(64), 2u);
  EXPECT_EQ(delivered_, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(nic_->stats().rx_interrupts, 0u);
  EXPECT_EQ(nic_->stats().polled_packets, 2u);
}

TEST_F(NicFixture, PollRespectsMaxPackets) {
  nic_->SetMode(Nic::Mode::kPolled);
  for (int i = 0; i < 5; ++i) {
    nic_->OnWireRx(DataPacket(static_cast<uint64_t>(i), 1500));
  }
  EXPECT_EQ(nic_->Poll(3), 3u);
  EXPECT_EQ(nic_->rx_ring_depth(), 2u);
}

TEST_F(NicFixture, RingOverflowDrops) {
  nic_->SetMode(Nic::Mode::kPolled);
  for (int i = 0; i < 300; ++i) {
    nic_->OnWireRx(DataPacket(static_cast<uint64_t>(i), 60));
  }
  EXPECT_EQ(nic_->rx_ring_depth(), 256u);  // default ring size
  EXPECT_EQ(nic_->stats().rx_dropped, 44u);
}

TEST_F(NicFixture, SwitchingToInterruptModeFlushesRing) {
  nic_->SetMode(Nic::Mode::kPolled);
  nic_->OnWireRx(DataPacket(9, 1500));
  EXPECT_TRUE(delivered_.empty());
  nic_->SetMode(Nic::Mode::kInterrupt);
  EXPECT_EQ(delivered_, (std::vector<uint64_t>{9}));
}

TEST_F(NicFixture, PolledBatchCostsLessThanInterrupts) {
  // Process the same 8 packets both ways and compare stolen CPU time.
  SimDuration before = kernel_->cpu(0).stolen_time();
  for (int i = 0; i < 8; ++i) {
    nic_->OnWireRx(DataPacket(static_cast<uint64_t>(i), 1500));
  }
  SimDuration interrupt_cost = kernel_->cpu(0).stolen_time() - before;

  nic_->SetMode(Nic::Mode::kPolled);
  for (int i = 0; i < 8; ++i) {
    nic_->OnWireRx(DataPacket(static_cast<uint64_t>(100 + i), 1500));
  }
  before = kernel_->cpu(0).stolen_time();
  nic_->Poll(64);
  SimDuration poll_cost = kernel_->cpu(0).stolen_time() - before;
  EXPECT_LT(poll_cost.nanos(), interrupt_cost.nanos() / 2);
}

TEST_F(NicFixture, AckProcessingCheaperThanData) {
  SimDuration before = kernel_->cpu(0).stolen_time();
  nic_->OnWireRx(DataPacket(1, 1500));
  SimDuration data_cost = kernel_->cpu(0).stolen_time() - before;

  Packet ack;
  ack.id = 2;
  ack.kind = Packet::Kind::kAck;
  ack.size_bytes = 40;
  before = kernel_->cpu(0).stolen_time();
  nic_->OnWireRx(ack);
  SimDuration ack_cost = kernel_->cpu(0).stolen_time() - before;
  EXPECT_LT(ack_cost, data_cost);
}

TEST_F(NicFixture, TxCompletionsCoalesceIntoOneInterrupt) {
  for (int i = 0; i < 5; ++i) {
    nic_->Transmit(DataPacket(static_cast<uint64_t>(i), 1500));
  }
  sim_.RunUntil(SimTime::Zero() + SimDuration::Millis(3));
  EXPECT_EQ(nic_->stats().tx_packets, 5u);
  EXPECT_EQ(nic_->stats().tx_complete_interrupts, 1u);
}

TEST(SoftTimerNetPollerTest, DrainsNicUnderBusyCpuAndTracksQuota) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  Kernel kernel(&sim, kc);
  Link::Config lc;
  Link tx(&sim, lc);
  Nic nic(&sim, &kernel, &tx, Nic::Config{});
  int delivered = 0;
  nic.set_rx_handler([&](const Packet&) { ++delivered; });

  SoftTimerNetPoller::Config pc;
  pc.governor.aggregation_quota = 2.0;
  pc.governor.min_interval_ticks = 10;
  pc.governor.max_interval_ticks = 2000;
  pc.governor.initial_interval_ticks = 50;
  SoftTimerNetPoller poller(&kernel, {&nic}, pc);
  poller.Start();

  // Busy CPU with steady kernel entries (trigger states for the poll
  // events), plus packet arrivals every 60 us.
  std::function<void()> churn = [&] {
    kernel.KernelOp(TriggerSource::kSyscall, SimDuration::Micros(18), churn);
  };
  churn();
  std::function<void()> arrivals = [&] {
    nic.OnWireRx(DataPacket(1, 1500));
    sim.ScheduleAfter(SimDuration::Micros(60), arrivals);
  };
  sim.ScheduleAfter(SimDuration::Micros(60), arrivals);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(200));
  EXPECT_EQ(nic.mode(), Nic::Mode::kPolled);
  EXPECT_GT(delivered, 3000);
  EXPECT_EQ(nic.stats().rx_interrupts, 0u);
  // The governor steers found-per-poll toward the quota.
  double found_per_poll = static_cast<double>(poller.stats().packets) /
                          static_cast<double>(poller.stats().polls);
  EXPECT_NEAR(found_per_poll, 2.0, 0.8);
}

TEST(SoftTimerNetPollerTest, DroughtResetReclampsGovernorInterval) {
  // Pin for the drought-recovery path: a quiet NIC walks the governor out to
  // its (large) max interval; a trigger drought then starves the poll stream.
  // When the drought ends the poller must re-engage at the *re-clamped*
  // interval - min(current, initial) within the Config bounds - not resume
  // one full stale max-interval later. Regression: the old listener only
  // called ResetRate() and left both the stale interval and the stale
  // pending event in place.
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  kc.idle_poll_jitter_sigma = 0;
  kc.degradation.enabled = true;
  kc.degradation.density_floor_checks_per_interval = 4;
  Kernel kernel(&sim, kc);
  kernel.cpu(0).Submit(SimDuration::Seconds(10));  // busy: polling stays engaged

  Link::Config lc;
  Link tx(&sim, lc);
  Nic nic(&sim, &kernel, &tx, Nic::Config{});
  nic.set_rx_handler([](const Packet&) {});

  SoftTimerNetPoller::Config pc;
  pc.governor.aggregation_quota = 2.0;
  pc.governor.min_interval_ticks = 10;
  pc.governor.max_interval_ticks = 20'000;  // 20 backup periods: very stale
  pc.governor.initial_interval_ticks = 50;
  SoftTimerNetPoller poller(&kernel, {&nic}, pc);
  poller.Start();

  // Record the measure tick at which the drought ends, the poll count at
  // that instant, and the governor interval right after the poller's own
  // drought listener ran (Start() registered it first, so it has already
  // re-engaged by the time this one fires).
  uint64_t end_tick = 0;
  uint64_t polls_at_end = 0;
  uint64_t interval_at_reset = 0;
  kernel.soft_timers().AddDroughtListener([&](bool entering) {
    if (!entering && end_tick == 0) {
      end_tick = kernel.soft_timers().MeasureTime();
      polls_at_end = poller.stats().polls;
      interval_at_reset = poller.governor().current_interval_ticks();
    }
  });

  // Dense syscall trigger churn (well above the density floor); no packets
  // ever arrive, so every poll finds nothing and the interval doubles out to
  // the max.
  std::function<void()> churn = [&] {
    kernel.Trigger(TriggerSource::kSyscall);
    sim.ScheduleAfter(SimDuration::Micros(40), churn);
  };
  sim.ScheduleAfter(SimDuration::Micros(40), churn);

  // 10-backup-period trigger drought at t = 250 ms.
  fault::FaultPlan plan;
  plan.trigger_droughts.push_back({250'000, 10'000});
  SimClockSource true_clock(&sim, kc.measure_hz);
  fault::FaultInjector inj(&true_clock, plan, /*seed=*/11);
  inj.InstallOn(&kernel);

  // Probe for the first poll after the drought ends.
  uint64_t first_poll_tick = 0;
  std::function<void()> probe = [&] {
    if (end_tick != 0 && first_poll_tick == 0 &&
        poller.stats().polls > polls_at_end) {
      first_poll_tick = kernel.soft_timers().MeasureTime();
    }
    sim.ScheduleAfter(SimDuration::Micros(20), probe);
  };
  sim.ScheduleAfter(SimDuration::Micros(20), probe);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(240));
  // Quiet traffic pegged the interval at the stale maximum.
  EXPECT_EQ(poller.governor().current_interval_ticks(), 20'000u);

  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(300));
  ASSERT_GE(poller.stats().drought_resets, 1u);
  ASSERT_NE(end_tick, 0u);
  // The reset re-clamped to min(current, initial) = the initial interval.
  EXPECT_EQ(interval_at_reset, 50u);
  // And the stream actually re-engaged promptly: the first post-drought poll
  // lands within a small multiple of the initial interval, not one stale
  // 20'000-tick max interval later.
  ASSERT_NE(first_poll_tick, 0u);
  EXPECT_LT(first_poll_tick - end_tick, 2'000u);
}

TEST(SoftTimerNetPollerTest, IdleCpuReenablesInterrupts) {
  Simulator sim;
  Kernel::Config kc;
  kc.profile = MachineProfile::PentiumII300();
  Kernel kernel(&sim, kc);
  Link::Config lc;
  Link tx(&sim, lc);
  Nic nic(&sim, &kernel, &tx, Nic::Config{});
  int delivered = 0;
  nic.set_rx_handler([&](const Packet&) { ++delivered; });

  SoftTimerNetPoller::Config pc;
  SoftTimerNetPoller poller(&kernel, {&nic}, pc);
  poller.Start();

  // CPU busy for 1 ms, then idle.
  kernel.cpu(0).Submit(SimDuration::Millis(1));
  sim.RunUntil(SimTime::Zero() + SimDuration::Micros(500));
  EXPECT_EQ(nic.mode(), Nic::Mode::kPolled);
  sim.RunUntil(SimTime::Zero() + SimDuration::Millis(2));
  EXPECT_EQ(nic.mode(), Nic::Mode::kInterrupt);
  // A packet arriving while idle is processed immediately via interrupt.
  nic.OnWireRx(DataPacket(5, 1500));
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace softtimer
