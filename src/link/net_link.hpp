#pragma once

/// \file net_link.hpp
/// The link layer over the net runtime: a byte-payload link (send()
/// arbitrary payloads, in-order exactly-once delivery callbacks) driven
/// by the same net::NetEndpoint the DES link (link::SimLink) runs, on its
/// real-network port -- a Transport and TimerWheel instead of the
/// simulator and its ByteChannels.  Same bounded core (residues mod 2w on
/// the wire), same failure model (CRC turns corruption into loss), but
/// the event loop is poll()-driven and both directions share one socket:
/// a NetReliableLink is duplex, and with NetConfig::piggyback on its acks
/// ride the reverse DATA as wire type 4 frames.  Both classes here are
/// configured by a plain net::NetConfig, as SimLink is.
///
/// Payload flow uses the endpoint's source/sink hooks.  Sends are
/// application-gated (EngineConfig::app_arrivals) through the shared
/// PayloadStore: send() stores the bytes, then releases one message into
/// the window, so the payload source can always serve a retransmission
/// of any outstanding seq -- and acknowledged payloads are dropped.
///
/// NetStreamMux runs several NetReliableLinks over ONE shared transport,
/// each tagged with a wire stream id (kFlagStream), and demuxes inbound
/// frames centrally through its own receive-only net::NetPort -- the
/// server's shard demux pattern, scaled down: member links never recv
/// (the mux owns the arena); they only stage sends, with batch=1 so every
/// frame lands in the shared socket the same call.  Per-stream
/// sequencing confines a loss to the stream that suffered it, exactly as
/// the DES mux demonstrates in E15.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "link/link_core.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"

namespace bacp::link {

using NetLinkEndpoint = net::NetEndpoint<LinkCore>;

/// One duplex reliable byte link over a real transport.  Wire a pair of
/// these over the two ends of a transport pair (InprocTransport for
/// deterministic tests, UdpTransport for deployment); each side sends up
/// to `count` payloads of at most `payload_size` bytes and expects
/// `rx_count` from its peer.
class NetReliableLink {
public:
    using DeliverFn = std::function<void(std::span<const std::uint8_t>)>;

    /// \p cfg configures the link's endpoint as it would any NetEndpoint
    /// (both sides of a link must agree on w, the ack policy and the
    /// piggyback pair); sends are always application-gated.  \p wheel and
    /// \p transport must outlive the link; poll() fires the wheel, so a
    /// link (or its owning mux) is single-threaded.
    NetReliableLink(net::NetConfig cfg, net::TimerWheel& wheel, net::Transport& transport)
        : endpoint_(app_gated(std::move(cfg)), {}, wheel, transport) {
        store_.bind(endpoint_);
        endpoint_.set_deliver_sink([this](Seq, std::span<const std::uint8_t> payload) {
            if (on_deliver_) on_deliver_(payload);
        });
    }

    NetReliableLink(const NetReliableLink&) = delete;
    NetReliableLink& operator=(const NetReliableLink&) = delete;

    /// Registers the in-order delivery callback (call before start()).
    void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

    /// Call once before the poll loop.
    void start() { endpoint_.start(); }

    /// Queues one payload for reliable, in-order transmission and pumps
    /// the window (frames may egress from inside this call).
    void send(std::vector<std::uint8_t> payload) {
        BACP_ASSERT_MSG(store_.stored() < endpoint_.config().count, "more sends than count");
        BACP_ASSERT_MSG(payload.size() <= endpoint_.config().payload_size,
                        "payload exceeds payload_size");
        store_.send(endpoint_, std::move(payload));
    }

    /// One event-loop iteration (timers, ingress, egress flush).
    std::size_t poll() { return endpoint_.poll(); }

    /// Every queued payload sent and acknowledged, every expected
    /// arrival delivered.
    bool done() const { return endpoint_.done(); }

    Seq sent_count() const { return store_.stored(); }
    Seq delivered_count() const { return endpoint_.delivered(); }
    /// Payloads held for retransmission or still queued: at most the
    /// window plus the queue, however many were sent.
    std::size_t payloads_held() const { return store_.held(); }

    NetLinkEndpoint& endpoint() { return endpoint_; }
    const NetLinkEndpoint& endpoint() const { return endpoint_; }

private:
    static net::NetConfig app_gated(net::NetConfig cfg) {
        cfg.app_arrivals = true;  // send() gates the window
        return cfg;
    }

    NetLinkEndpoint endpoint_;
    PayloadStore store_;
    DeliverFn on_deliver_;
};

/// Several independent reliable streams over one shared transport: the
/// net-runtime counterpart of link::StreamMux.  One NetReliableLink per
/// stream, every frame stream-tagged, one central recv loop demuxing by
/// id.  Each stream is itself duplex (count out, rx_count in, acks
/// piggybacked when the config asks), so one mux object per socket end
/// is the whole stack.
class NetStreamMux {
public:
    using DeliverFn = std::function<void(Seq stream, std::span<const std::uint8_t>)>;

    /// \p cfg configures every stream's link (count and rx_count are per
    /// stream); stream s runs on seed cfg.seed + s.
    NetStreamMux(Seq streams, const net::NetConfig& cfg, net::TimerWheel& wheel,
                 net::Transport& transport)
        : port_(arena_config(streams, cfg), wheel, transport) {
        BACP_ASSERT_MSG(streams >= 1, "need at least one stream");
        links_.reserve(streams);
        for (Seq s = 0; s < streams; ++s) {
            net::NetConfig link_cfg = cfg;
            link_cfg.seed = cfg.seed + s;
            link_cfg.stream = s;
            // The member links never poll their own transport -- the mux
            // owns ingress -- so their egress must reach the socket the
            // moment it is staged.
            link_cfg.batch = 1;
            links_.push_back(std::make_unique<NetReliableLink>(link_cfg, wheel, transport));
            links_.back()->set_on_deliver([this, s](std::span<const std::uint8_t> payload) {
                if (on_deliver_) on_deliver_(s, payload);
            });
        }
    }

    NetStreamMux(const NetStreamMux&) = delete;
    NetStreamMux& operator=(const NetStreamMux&) = delete;

    void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

    void start() {
        for (auto& link : links_) link->start();
    }

    /// Enqueues a payload on the given stream (0-based).
    void send(Seq stream, std::vector<std::uint8_t> payload) {
        BACP_ASSERT_MSG(stream < streams(), "stream out of range");
        links_[stream]->send(std::move(payload));
    }

    /// One event-loop iteration for the whole mux: NetPort::poll fires
    /// the shared wheel (all streams' timers) and drains the shared socket
    /// through net::drain_ingress, routing each frame to its stream (a
    /// corrupt one is dropped: loss).  Member links flush their own egress
    /// at stage time (batch=1).
    std::size_t poll() {
        return port_.poll({&dropped_},
                          [this](net::PeerAddr, const wire::FrameView& frame) { route(frame); });
    }

    bool done() const {
        for (const auto& link : links_) {
            if (!link->done()) return false;
        }
        return true;
    }

    Seq streams() const { return static_cast<Seq>(links_.size()); }
    Seq delivered_count(Seq stream) const { return links_[stream]->delivered_count(); }
    std::uint64_t dropped_frames() const { return dropped_; }

    NetReliableLink& link(Seq stream) { return *links_[stream]; }

private:
    /// The mux's port only receives: its arena holds a window of frames
    /// from every stream, each slot sized for one full DATA frame.
    static net::NetConfig arena_config(Seq streams, net::NetConfig cfg) {
        cfg.batch = static_cast<std::size_t>(streams * cfg.w);
        cfg.max_datagram = std::min(cfg.max_datagram, cfg.payload_size + 128);
        return cfg;
    }

    void route(const wire::FrameView& frame) {
        if ((frame.flags & wire::kFlagStream) == 0 || frame.stream >= streams()) {
            ++dropped_;  // untagged or unknown stream: nowhere to route
            return;
        }
        links_[frame.stream]->endpoint().handle_frame(frame);
    }

    net::NetPort port_;
    std::vector<std::unique_ptr<NetReliableLink>> links_;
    DeliverFn on_deliver_;
    std::uint64_t dropped_ = 0;
};

}  // namespace bacp::link
