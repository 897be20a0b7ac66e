#include "src/tcp/tcp_sender.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace softtimer {

namespace {

AdaptivePacer::Config PacerConfig(const TcpSender::Config& c) {
  AdaptivePacer::Config pc;
  pc.target_interval_ticks = c.pace_target_interval_ticks;
  pc.min_burst_interval_ticks = c.pace_min_burst_interval_ticks;
  pc.max_coalesced_burst_packets = c.pace_max_coalesced_burst;
  return pc;
}

}  // namespace

TcpSender::TcpSender(Kernel* kernel, Config config)
    : kernel_(kernel), config_(config), pacer_(PacerConfig(config)) {
  assert(kernel_ != nullptr);
  assert(config_.mss > 0);
}

void TcpSender::StartTransfer(uint64_t bytes, std::function<void()> on_complete) {
  assert(!active_);
  transfer_bytes_ = bytes;
  on_complete_ = std::move(on_complete);
  active_ = true;
  complete_ = false;
  snd_una_ = 0;
  snd_next_ = 0;
  dupacks_ = 0;
  in_recovery_ = false;
  cwnd_ = static_cast<uint64_t>(config_.initial_cwnd_segments) * config_.mss;
  ssthresh_ = config_.ssthresh_bytes;
  rto_current_ = config_.rto_initial;

  if (config_.mode == Mode::kRateBased) {
    pacer_.StartTrain(kernel_->soft_timers().MeasureTime());
    OnPaceEvent();  // first segment leaves immediately
  } else {
    TrySendWindow(config_.max_burst_segments);
  }
  ArmRto();
}

void TcpSender::SendSegmentAt(uint64_t seq, bool retransmit) {
  uint32_t payload =
      static_cast<uint32_t>(std::min<uint64_t>(config_.mss, transfer_bytes_ - seq));
  Packet p;
  p.flow_id = config_.flow_id;
  p.kind = Packet::Kind::kData;
  p.seq = seq;
  p.payload = payload;
  p.fin = (seq + payload >= transfer_bytes_);
  p.size_bytes = payload + kTcpIpHeaderBytes;
  p.sent_at = kernel_->sim()->now();

  ++stats_.segments_sent;
  if (retransmit) {
    ++stats_.retransmits;
    // Karn's rule: an ACK covering a retransmitted range is ambiguous.
    rtt_probe_active_ = false;
  } else {
    MaybeStartRttProbe(seq + payload);
  }
  // The transmission passes through the kernel's IP output path: an
  // ip-output trigger state plus the driver/protocol output cost.
  kernel_->Trigger(TriggerSource::kIpOutput);
  kernel_->cpu(0).Steal(kernel_->profile().Work(kernel_->profile().tx_packet_service));
  if (packet_sender_) {
    packet_sender_(p);
  }
}

void TcpSender::TrySendWindow(uint32_t burst_budget) {
  uint64_t wnd = std::min(cwnd_, config_.rwnd_bytes);
  uint32_t sent = 0;
  while (active_ && snd_next_ < transfer_bytes_) {
    uint64_t payload = std::min<uint64_t>(config_.mss, transfer_bytes_ - snd_next_);
    if (snd_next_ - snd_una_ + payload > wnd) {
      break;
    }
    SendSegmentAt(snd_next_, /*retransmit=*/false);
    snd_next_ += payload;
    ++sent;
    if (burst_budget != 0 && sent >= burst_budget) {
      break;
    }
  }
}

void TcpSender::OnPaceEvent() {
  pace_event_ = SoftEventId{};
  if (!active_ || complete_) {
    return;
  }
  if (snd_next_ >= transfer_bytes_) {
    return;  // everything sent; waiting for ACKs
  }
  // A stale wakeup (the soft-timer stream stalled) may carry a bounded
  // catch-up burst; the last segment of the burst goes through the normal
  // send-and-reschedule path.
  uint64_t budget = pacer_.CoalescedBurstBudget(kernel_->soft_timers().MeasureTime());
  while (budget > 1 && snd_next_ < transfer_bytes_) {
    uint64_t extra = std::min<uint64_t>(config_.mss, transfer_bytes_ - snd_next_);
    SendSegmentAt(snd_next_, /*retransmit=*/false);
    snd_next_ += extra;
    pacer_.OnPacketSent(kernel_->soft_timers().MeasureTime());
    --budget;
  }
  if (snd_next_ >= transfer_bytes_) {
    return;
  }
  uint64_t payload = std::min<uint64_t>(config_.mss, transfer_bytes_ - snd_next_);
  SendSegmentAt(snd_next_, /*retransmit=*/false);
  snd_next_ += payload;
  if (snd_next_ < transfer_bytes_) {
    SchedulePacedSend();
  }
}

void TcpSender::SchedulePacedSend() {
  uint64_t now_ticks = kernel_->soft_timers().MeasureTime();
  uint64_t delta = pacer_.OnPacketSent(now_ticks);
  pace_event_ = kernel_->soft_timers().ScheduleSoftEvent(
      delta, [this](const SoftTimerFacility::FireInfo&) { OnPaceEvent(); });
}

void TcpSender::OnAck(const Packet& p) {
  ++stats_.acks_received;
  if (!active_) {
    return;
  }
  uint64_t ack = p.ack_seq;
  if (ack > snd_una_) {
    if (config_.adaptive_rto && rtt_probe_active_ && ack >= rtt_probe_end_seq_) {
      rtt_probe_active_ = false;
      OnRttSample(kernel_->sim()->now() - rtt_probe_sent_at_);
    }
    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;  // full ACK: recovery episode over
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it
        // immediately instead of waiting for the RTO.
        snd_una_ = ack;
        dupacks_ = 0;
        SendSegmentAt(snd_una_, /*retransmit=*/true);
        ArmRto();
        return;
      }
    }
    snd_una_ = ack;
    dupacks_ = 0;
    if (config_.mode == Mode::kSelfClocked && !in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += config_.mss;  // slow start: +1 MSS per ACK
      } else {
        cwnd_ += std::max<uint64_t>(
            static_cast<uint64_t>(config_.mss) * config_.mss / cwnd_, 1);
      }
    }
    ArmRto();
    CompleteIfDone();
    if (!complete_ && config_.mode == Mode::kSelfClocked) {
      TrySendWindow(config_.max_burst_segments);
    }
    return;
  }
  if (ack == snd_una_ && snd_next_ > snd_una_) {
    ++dupacks_;
    if (config_.mode != Mode::kSelfClocked) {
      return;  // rate-based reliability rests on the RTO backstop
    }
    if (!in_recovery_ && dupacks_ >= config_.dupack_threshold) {
      // Fast retransmit (Reno, simplified: no window inflation).
      in_recovery_ = true;
      recover_ = snd_next_;
      uint64_t flight = snd_next_ - snd_una_;
      ssthresh_ = std::max<uint64_t>(flight / 2, 2ULL * config_.mss);
      cwnd_ = ssthresh_;
      ++stats_.fast_retransmits;
      SendSegmentAt(snd_una_, /*retransmit=*/true);
      ArmRto();
    } else if (in_recovery_) {
      // Each further dup ACK signals a departure; keep the pipe from
      // draining completely.
      cwnd_ += config_.mss;
      TrySendWindow(1);
    }
  }
}

void TcpSender::MaybeStartRttProbe(uint64_t end_seq) {
  if (!config_.adaptive_rto || rtt_probe_active_) {
    return;
  }
  rtt_probe_active_ = true;
  rtt_probe_end_seq_ = end_seq;
  rtt_probe_sent_at_ = kernel_->sim()->now();
}

void TcpSender::OnRttSample(SimDuration sample) {
  if (!have_srtt_) {
    srtt_ = sample;
    rttvar_ = sample / int64_t{2};
    have_srtt_ = true;
  } else {
    SimDuration err = sample - srtt_;
    if (err < SimDuration::Zero()) {
      err = -err;
    }
    srtt_ = srtt_ + (sample - srtt_) / int64_t{8};
    rttvar_ = rttvar_ + (err - rttvar_) / int64_t{4};
  }
  SimDuration rto = srtt_ + rttvar_ * int64_t{4};
  rto_current_ = std::clamp(rto, config_.rto_min, config_.rto_max);
}

void TcpSender::ArmRto() {
  Simulator* sim = kernel_->sim();
  if (rto_event_.valid()) {
    sim->Cancel(rto_event_);
  }
  rto_event_ = sim->ScheduleAfter(rto_current_, [this] { OnRtoFire(); });
}

void TcpSender::OnRtoFire() {
  rto_event_ = EventHandle{};
  if (!active_ || complete_ || snd_una_ >= transfer_bytes_) {
    return;
  }
  ++stats_.timeouts;
  uint64_t flight = snd_next_ - snd_una_;
  ssthresh_ = std::max<uint64_t>(flight / 2, 2ULL * config_.mss);
  cwnd_ = config_.mss;
  dupacks_ = 0;
  in_recovery_ = false;
  snd_next_ = snd_una_;  // go-back-N from the hole
  rto_current_ = std::min(rto_current_ * int64_t{2}, config_.rto_max);
  if (config_.mode == Mode::kRateBased) {
    if (!pace_event_.valid()) {
      pacer_.StartTrain(kernel_->soft_timers().MeasureTime());
      OnPaceEvent();
    }
  } else {
    TrySendWindow(config_.max_burst_segments);
  }
  ArmRto();
}

void TcpSender::CompleteIfDone() {
  if (complete_ || snd_una_ < transfer_bytes_) {
    return;
  }
  complete_ = true;
  active_ = false;
  Simulator* sim = kernel_->sim();
  if (rto_event_.valid()) {
    sim->Cancel(rto_event_);
    rto_event_ = EventHandle{};
  }
  if (pace_event_.valid()) {
    kernel_->soft_timers().CancelSoftEvent(pace_event_);
    pace_event_ = SoftEventId{};
  }
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb();
  }
}

}  // namespace softtimer
