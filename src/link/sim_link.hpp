#pragma once

/// \file sim_link.hpp
/// The discrete-event link layer's one building block.
///
/// SimPort is the simulator port of net::NetEndpoint: virtual time and
/// timers from a sim::Simulator, and egress straight onto one outbound
/// ByteChannel.  With it the DES link runs the very endpoint the real
/// network runs -- runtime::DuplexDriver for every protocol decision,
/// NetEndpoint for frame dispatch, payload stashing, the wrapped-ack
/// split and delivery -- instead of a hand-written copy of either.
///
/// SimLink is one reliable direction built from two such endpoints: a
/// sending endpoint whose DATA leaves on `data_out`, and a receiving
/// endpoint whose ACK/NAK frames leave on `ack_out`.  The channels are
/// owned by the caller, so arbitrary topologies compose from SimLinks:
/// ReliableLink (one link, two private channels), StreamMux (one link per
/// stream over a shared stream-tagged pair), EndToEndPath (one link over
/// a relay chain) and HopByHopPath (one link per hop).  Frames that
/// arrive are handed back in with receiver().handle_datagram (DATA) and
/// sender().handle_datagram (ACK, NAK), or handle_frame once decoded.
///
/// Every link runs the paper's fully bounded protocol (SV) with the
/// realistic disciplines of PROTOCOL.md SS6: conservative per-message
/// timers, hole-gated retransmission, SACK-style ack clipping, the
/// send-horizon rule, and optional NAK fast retransmit.

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/link_core.hpp"
#include "net/net_engine.hpp"
#include "runtime/ack_policy.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

/// net::NetEndpoint port over the simulator: frames go onto the
/// outbound channel the moment the driver emits them, so the event order
/// is the driver's decision order.
class SimPort {
public:
    SimPort(const net::NetConfig&, sim::Simulator& sim, ByteChannel& out) : sim_(sim), out_(out) {}

    TimerService& timer_service() { return sim_; }
    SimTime now() const { return sim_.now(); }
    /// Simulated time never moves inside a call: a step holds nothing.
    struct Step {};
    Step step() const { return {}; }

    template <typename Encode>
    void stage(Encode&& encode) {
        ByteChannel::Frame frame;
        encode(frame);
        out_.send(std::move(frame));
    }
    void staged() {}
    void flush() {}

private:
    sim::Simulator& sim_;
    ByteChannel& out_;
};

using SimEndpoint = net::NetEndpoint<LinkCore, SimPort>;

/// The endpoint configuration every DES link topology hands its
/// SimLinks: the window, \p lifetime (the bound on one-way transit over
/// the whole path), the ack policy and NAK fast retransmit.  Every other
/// field keeps its NetConfig default.
inline net::NetConfig link_config(Seq w, SimTime lifetime, runtime::AckPolicy ack_policy,
                                  bool enable_nak) {
    net::NetConfig cfg;
    cfg.w = w;
    cfg.link_lifetime = lifetime;
    cfg.ack_policy = ack_policy;
    cfg.enable_nak = enable_nak;
    return cfg;
}

class SimLink {
public:
    using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

    /// \p cfg configures both endpoints.  SimLink reads w,
    /// link_lifetime (the bound on one-way transit over the whole path:
    /// propagation, queueing, relays), timeout, ack_policy, enable_nak
    /// and stream (when set, every frame carries that id,
    /// so StreamMux can share one channel pair); it sets the counts and
    /// the payload gating itself.
    SimLink(sim::Simulator& sim, ByteChannel& data_out, ByteChannel& ack_out,
            const net::NetConfig& cfg, LinkCore::Options options = {})
        : tx_(half_config(cfg, true), options, sim, data_out),
          rx_(half_config(cfg, false), options, sim, ack_out) {
        store_.bind(tx_);
        rx_.set_deliver_sink([this](Seq, std::span<const std::uint8_t> payload) {
            if (on_deliver_) on_deliver_(payload);
        });
        tx_.start();
    }

    SimLink(const SimLink&) = delete;
    SimLink& operator=(const SimLink&) = delete;

    /// Registers the in-order delivery callback (call before sending).
    void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

    /// Enqueues one payload for reliable, in-order transmission.
    void send(std::vector<std::uint8_t> payload) { store_.send(tx_, std::move(payload)); }

    /// The sending endpoint (feed it frames from the ack path) and the
    /// receiving endpoint (feed it frames from the data path).
    SimEndpoint& sender() { return tx_; }
    SimEndpoint& receiver() { return rx_; }

    /// Payloads accepted but not yet handed to the protocol window.
    Seq queued() const { return tx_.tx_driver().released() - tx_.tx_driver().sent_new(); }
    /// Payloads handed to the protocol so far.
    Seq sent_count() const { return tx_.tx_driver().sent_new(); }
    /// Payloads delivered in order at the far side.
    Seq delivered_count() const { return rx_.delivered(); }
    /// Everything enqueued has been delivered and acknowledged.
    bool idle() const { return queued() == 0 && !tx_.tx_core().has_outstanding(); }

    std::uint64_t retransmissions() const { return tx_.tx_metrics().data_retx; }
    std::uint64_t fast_retransmissions() const { return tx_.tx_metrics().fast_retx; }
    std::uint64_t naks_sent() const { return rx_.rx_metrics().naks_sent; }
    /// Frames rejected by the CRC / codec or as impossible arrivals
    /// (treated as losses), at either end.
    std::uint64_t frames_rejected() const {
        return tx_.metrics().decode_errors + rx_.metrics().decode_errors;
    }
    /// Payloads the sending side holds for retransmission or queueing.
    std::size_t payloads_held() const { return store_.held(); }

private:
    static net::NetConfig half_config(net::NetConfig cfg, bool sending) {
        // A link stream has no fixed length: the sending half runs for
        // ever, released one payload at a time by send().
        constexpr Seq kForever = std::numeric_limits<Seq>::max();
        cfg.count = sending ? kForever : 0;
        cfg.rx_count = sending ? 0 : kForever;
        cfg.app_arrivals = true;
        cfg.payload_size = 0;  // sizes only the receive stash's spare buffers
        return cfg;
    }

    SimEndpoint tx_;
    SimEndpoint rx_;
    PayloadStore store_;
    DeliverFn on_deliver_;
};

}  // namespace bacp::link
