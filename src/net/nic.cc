#include "src/net/nic.h"

#include <utility>

namespace softtimer {

Nic::Nic(Simulator* sim, Kernel* kernel, Link* tx_link, Config config)
    : sim_(sim), kernel_(kernel), tx_link_(tx_link), config_(config) {}

SimDuration Nic::RxServiceCost(const Packet& p) const {
  const MachineProfile& prof = kernel_->profile();
  return p.kind == Packet::Kind::kAck ? prof.rx_ack_service : prof.rx_packet_service;
}

void Nic::OnWireRx(const Packet& p) {
  if (rx_ring_.size() >= config_.rx_ring_size) {
    ++stats_.rx_dropped;
    return;
  }
  rx_ring_.push_back(p);
  ++stats_.rx_packets;
  if (mode_ == Mode::kInterrupt) {
    RaiseRxInterrupt();
  }
}

void Nic::RaiseRxInterrupt() {
  // One interrupt drains everything currently in the ring (arrivals during
  // the service window raise their own).
  size_t n = rx_ring_.size();
  if (n == 0) {
    return;
  }
  ++stats_.rx_interrupts;
  const MachineProfile& prof = kernel_->profile();
  SimDuration work;
  for (size_t i = 0; i < n; ++i) {
    work += prof.Work(RxServiceCost(rx_ring_[i]));
  }
  kernel_->RaiseInterrupt(TriggerSource::kIpIntr, work, [this, n] {
    for (size_t i = 0; i < n && !rx_ring_.empty(); ++i) {
      Packet p = rx_ring_.front();
      rx_ring_.pop_front();
      if (rx_handler_) {
        rx_handler_(p);
      }
    }
  });
}

void Nic::Transmit(Packet p) {
  ++stats_.tx_packets;
  SimDuration serialize = tx_link_->SerializationDelay(p.size_bytes);
  tx_link_->Send(p);
  if (mode_ == Mode::kInterrupt && config_.tx_complete_interrupts) {
    ++pending_tx_completions_;
    if (!tx_reap_scheduled_) {
      tx_reap_scheduled_ = true;
      sim_->ScheduleAfter(serialize + config_.tx_coalesce_window,
                          [this] { ReapTxCompletions(); });
    }
  }
}

void Nic::ReapTxCompletions() {
  tx_reap_scheduled_ = false;
  if (pending_tx_completions_ == 0 || mode_ != Mode::kInterrupt) {
    pending_tx_completions_ = 0;
    return;
  }
  if (tx_link_->queue_depth() > 0) {
    // A burst is still draining onto the wire; signal once when it is done.
    tx_reap_scheduled_ = true;
    sim_->ScheduleAfter(tx_link_->SerializationDelay(kEthernetMtu),
                        [this] { ReapTxCompletions(); });
    return;
  }
  uint64_t n = pending_tx_completions_;
  pending_tx_completions_ = 0;
  ++stats_.tx_complete_interrupts;
  const MachineProfile& prof = kernel_->profile();
  kernel_->RaiseInterrupt(TriggerSource::kIpIntr,
                          prof.Work(config_.tx_complete_work) * static_cast<int64_t>(n));
}

void Nic::SetMode(Mode m) {
  if (mode_ == m) {
    return;
  }
  mode_ = m;
  if (mode_ == Mode::kInterrupt && !rx_ring_.empty()) {
    // Re-enabling interrupts with packets pending signals immediately.
    RaiseRxInterrupt();
  }
  if (mode_ == Mode::kPolled) {
    pending_tx_completions_ = 0;  // reaped for free at the next poll
  }
}

size_t Nic::Poll(size_t max_packets) {
  const MachineProfile& prof = kernel_->profile();
  kernel_->cpu(0).Steal(prof.Work(config_.poll_cost));
  size_t n = rx_ring_.size();
  if (n > max_packets) {
    n = max_packets;
  }
  pending_tx_completions_ = 0;  // tx reaping rides along with the poll
  if (n == 0) {
    return 0;
  }
  DeliverBatchFromPoll(n);
  return n;
}

void Nic::DeliverBatchFromPoll(size_t n) {
  const MachineProfile& prof = kernel_->profile();
  // First packet saves the locality discount vs interrupt processing; the
  // rest of the batch amortizes further (Section 4.2's aggregation benefit).
  SimDuration work;
  for (size_t i = 0; i < n; ++i) {
    SimDuration base = RxServiceCost(rx_ring_[i]) * (1.0 - prof.poll_locality_discount);
    if (i > 0) {
      base = base * (1.0 - prof.batch_locality_discount);
    }
    work += base;
  }
  kernel_->cpu(0).Steal(prof.Work(work));
  stats_.polled_packets += n;
  for (size_t i = 0; i < n; ++i) {
    Packet p = rx_ring_.front();
    rx_ring_.pop_front();
    if (rx_handler_) {
      rx_handler_(p);
    }
  }
}

}  // namespace softtimer
