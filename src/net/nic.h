// Network interface model with the two processing disciplines the paper
// compares in Section 5.9:
//
//   kInterrupt - every packet arrival raises a device interrupt (full
//                hardware interrupt overhead + per-packet protocol
//                processing); transmit completions raise a coalesced
//                interrupt per burst.
//   kPolled    - arrivals only land in the rx ring; the host drains the ring
//                from Poll(), typically driven by a soft-timer event
//                (SoftTimerNetPoller). Polled processing is cheaper per
//                packet (better locality at trigger states) and batches
//                amortize further (aggregation quota > 1).

#ifndef SOFTTIMER_SRC_NET_NIC_H_
#define SOFTTIMER_SRC_NET_NIC_H_

#include <cstdint>
#include <deque>
#include <functional>

#include "src/machine/kernel.h"
#include "src/net/link.h"
#include "src/net/packet.h"

namespace softtimer {

class Nic {
 public:
  enum class Mode { kInterrupt, kPolled };

  struct Config {
    size_t rx_ring_size = 256;
    // Coalesced transmit-completion interrupts (interrupt mode only).
    bool tx_complete_interrupts = true;
    // Buffer-release work per completed transmission.
    SimDuration tx_complete_work = SimDuration::Micros(0.8);
    // How long the NIC holds a completion before signalling, letting a burst
    // coalesce into one interrupt ("some interfaces can be programmed to
    // signal the completion of a burst", Section 4.2 footnote).
    SimDuration tx_coalesce_window = SimDuration::Micros(250);
    // Reading the NIC status registers once per poll.
    SimDuration poll_cost = SimDuration::Micros(0.6);
  };

  Nic(Simulator* sim, Kernel* kernel, Link* tx_link, Config config);

  // Attach as the receiver of the peer's link:
  //   peer_link.set_receiver([&nic](const Packet& p) { nic.OnWireRx(p); });
  void OnWireRx(const Packet& p);

  // Upper-layer delivery, invoked once per packet after its protocol
  // processing cost has been charged.
  void set_rx_handler(std::function<void(const Packet&)> h) { rx_handler_ = std::move(h); }

  // Hands a packet to the wire. The caller is responsible for charging the
  // ip-output path cost (Kernel::KernelOp with TriggerSource::kIpOutput).
  void Transmit(Packet p);

  void SetMode(Mode m);
  Mode mode() const { return mode_; }

  // Drains up to `max_packets` from the rx ring, charging poll + batched
  // protocol-processing costs. Returns packets delivered. (Polled mode; in
  // interrupt mode the ring is normally empty.)
  size_t Poll(size_t max_packets);

  size_t rx_ring_depth() const { return rx_ring_.size(); }

  struct Stats {
    uint64_t rx_packets = 0;
    uint64_t rx_interrupts = 0;
    uint64_t rx_dropped = 0;
    uint64_t polled_packets = 0;
    uint64_t tx_packets = 0;
    uint64_t tx_complete_interrupts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  SimDuration RxServiceCost(const Packet& p) const;
  void RaiseRxInterrupt();
  void ReapTxCompletions();
  void DeliverBatchFromPoll(size_t n);

  Simulator* sim_;
  Kernel* kernel_;
  Link* tx_link_;
  Config config_;
  Mode mode_ = Mode::kInterrupt;
  std::function<void(const Packet&)> rx_handler_;
  std::deque<Packet> rx_ring_;
  // Tx completions accumulated while the wire is still busy (coalescing).
  uint64_t pending_tx_completions_ = 0;
  bool tx_reap_scheduled_ = false;
  Stats stats_;
};

}  // namespace softtimer

#endif  // SOFTTIMER_SRC_NET_NIC_H_
