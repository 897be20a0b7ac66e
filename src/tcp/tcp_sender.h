// TCP sender endpoint.
//
// Two transmission modes, matching the comparison of Section 5.8:
//
//   kSelfClocked - classic TCP: slow start from a configurable initial
//                  window, congestion avoidance past ssthresh, transmissions
//                  paced purely by returning ACKs, fast retransmit on
//                  triple-duplicate ACKs and a coarse retransmission timer.
//
//   kRateBased   - the paper's extension: the transfer skips slow start and
//                  transmits at a target rate (assumed-known path capacity)
//                  using soft-timer events scheduled through an AdaptivePacer
//                  (Section 4.1). ACKs are still consumed for reliability
//                  accounting, but do not clock transmissions.
//
// Wheel-paced sending (one pacing-wheel event for every flow on a shard,
// batched drains, one retransmission timer per connection) is
// PacingWheelHost plus RtoEngine (src/pacing, src/tcp/rto_engine.h), not a
// mode here.
//
// The sender runs on a host Kernel so every segment transmission passes
// through an ip-output trigger state (which, as in the paper, is itself a
// source of soft-timer dispatch opportunities).

#ifndef SOFTTIMER_SRC_TCP_TCP_SENDER_H_
#define SOFTTIMER_SRC_TCP_TCP_SENDER_H_

#include <cstdint>
#include <functional>

#include "src/core/adaptive_pacer.h"
#include "src/machine/kernel.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace softtimer {

class TcpSender {
 public:
  enum class Mode { kSelfClocked, kRateBased };

  struct Config {
    Mode mode = Mode::kSelfClocked;
    uint32_t mss = kDefaultMss;
    uint64_t flow_id = 0;

    // --- self-clocked parameters ---
    // FreeBSD 2.2.6 starts WAN connections at one segment.
    uint32_t initial_cwnd_segments = 1;
    uint64_t ssthresh_bytes = UINT64_MAX;
    // Receiver window (the paper's setup uses large tuned buffers).
    uint64_t rwnd_bytes = UINT64_MAX;
    uint32_t dupack_threshold = 3;
    // Cap on segments released by one ACK (Fall & Floyd's maxburst; 0 = off).
    uint32_t max_burst_segments = 0;
    // Retransmission timer. With adaptive_rto the timer follows Jacobson's
    // estimator (RTO = SRTT + 4 * RTTVAR, Karn-sampled); rto_initial applies
    // until the first RTT sample.
    bool adaptive_rto = true;
    SimDuration rto_initial = SimDuration::Seconds(1.5);
    SimDuration rto_min = SimDuration::Millis(200);
    SimDuration rto_max = SimDuration::Seconds(64);

    // --- rate-based parameters (measurement-clock ticks) ---
    uint64_t pace_target_interval_ticks = 120;
    uint64_t pace_min_burst_interval_ticks = 12;
    // When a pace event arrives several target intervals late (trigger
    // drought), send up to this many segments in one bounded catch-up burst
    // instead of a convoy of stale events. 0 = one segment per event (seed
    // behaviour).
    uint32_t pace_max_coalesced_burst = 0;
  };

  // `kernel` hosts the sender (ip-output triggers, soft timers for pacing).
  TcpSender(Kernel* kernel, Config config);

  const Config& config() const { return config_; }

  // Transport towards the receiver.
  void set_packet_sender(std::function<void(Packet)> fn) { packet_sender_ = std::move(fn); }

  // Begins a transfer of `bytes`; `on_complete` runs when every byte has
  // been cumulatively acknowledged.
  void StartTransfer(uint64_t bytes, std::function<void()> on_complete = {});

  // Ingress for ACK packets.
  void OnAck(const Packet& p);

  uint64_t cwnd_bytes() const { return cwnd_; }
  uint64_t bytes_acked() const { return snd_una_; }
  bool transfer_complete() const { return complete_; }
  // Smoothed RTT estimate; zero until the first sample.
  SimDuration srtt() const { return srtt_; }
  SimDuration current_rto() const { return rto_current_; }

  struct Stats {
    uint64_t segments_sent = 0;
    uint64_t retransmits = 0;
    uint64_t fast_retransmits = 0;
    uint64_t timeouts = 0;
    uint64_t acks_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void TrySendWindow(uint32_t burst_budget);
  void SendSegmentAt(uint64_t seq, bool retransmit);
  void SchedulePacedSend();
  void OnPaceEvent();
  void ArmRto();
  void OnRtoFire();
  void MaybeStartRttProbe(uint64_t seq);
  void OnRttSample(SimDuration sample);
  void CompleteIfDone();

  Kernel* kernel_;
  Config config_;
  std::function<void(Packet)> packet_sender_;
  AdaptivePacer pacer_;

  uint64_t transfer_bytes_ = 0;
  std::function<void()> on_complete_;
  bool active_ = false;
  bool complete_ = false;

  uint64_t snd_una_ = 0;   // lowest unacknowledged byte
  uint64_t snd_next_ = 0;  // next byte to transmit
  uint64_t cwnd_ = 0;
  uint64_t ssthresh_ = 0;
  uint32_t dupacks_ = 0;
  // Highest byte sent before entering the current recovery episode.
  uint64_t recover_ = 0;
  bool in_recovery_ = false;

  SoftEventId pace_event_;
  EventHandle rto_event_;
  SimDuration rto_current_;

  // Jacobson/Karn RTT estimation: one timed segment at a time, invalidated
  // by any retransmission (a retransmitted segment's ACK is ambiguous).
  bool rtt_probe_active_ = false;
  uint64_t rtt_probe_end_seq_ = 0;
  SimTime rtt_probe_sent_at_;
  SimDuration srtt_;
  SimDuration rttvar_;
  bool have_srtt_ = false;

  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_TCP_TCP_SENDER_H_
