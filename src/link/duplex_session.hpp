#pragma once

/// \file duplex_session.hpp
/// Full-duplex block-acknowledgment session with ack piggybacking, in
/// the discrete-event simulator.
///
/// The paper's protocol is unidirectional (S -> R data, R -> S acks).
/// The classic generalization runs one protocol instance per direction
/// over the same channel pair and lets each endpoint *piggyback* its
/// pending block acknowledgment on outgoing data (DATA+ACK frames),
/// spending a standalone ACK frame only when no reverse data appears
/// within a small piggyback delay.
///
/// With block acknowledgments the piggyback is particularly effective:
/// one ridden (m, n) pair can acknowledge a whole window, so under
/// symmetric bulk traffic the ack-frame count approaches zero.
///
/// Each end is a net::NetEndpoint on the simulator port (link::SimPort)
/// running runtime::DuplexDriver over the paper's unbounded SII/SIV core
/// -- the same driver, ack deferral and frame path as a real-network
/// duplex endpoint, over two ByteChannels built from the configured
/// LinkSpecs.  Both modes hold acks for piggyback_delay (AckPolicy
/// delayed), so the piggyback ablation isolates riding from batching;
/// with piggyback on, reverse DATA sent during the hold carries the held
/// block, and a block still unridden when the hold ends waits up to one
/// more piggyback_delay for a ride before it goes out standalone.

#include <cstdint>

#include "ba/engine_core.hpp"
#include "common/histogram.hpp"
#include "link/byte_channel.hpp"
#include "link/sim_link.hpp"
#include "runtime/link_spec.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

struct DuplexConfig {
    Seq w = 8;
    Seq count_a_to_b = 1000;
    Seq count_b_to_a = 1000;
    SimTime timeout = 0;           // 0 = conservative derivation
    bool piggyback = true;         // ablation switch
    /// Ack hold in both modes; with piggyback on, an unridden block may
    /// wait one more piggyback_delay for reverse DATA (2x in all).
    SimTime piggyback_delay = 2 * kMillisecond;
    runtime::LinkSpec ab_link = runtime::LinkSpec::lossless();
    runtime::LinkSpec ba_link = runtime::LinkSpec::lossless();
    std::uint64_t seed = 1;
    SimTime deadline = 3600 * kSecond;
    std::size_t max_events = 50'000'000;
};

class DuplexSession {
public:
    explicit DuplexSession(DuplexConfig config);
    DuplexSession(const DuplexSession&) = delete;
    DuplexSession& operator=(const DuplexSession&) = delete;

    struct Result {
        sim::Metrics a_to_b;  // traffic sent by A (delivered at B)
        sim::Metrics b_to_a;
        std::uint64_t frames_ab = 0;       // messages placed on each channel
        std::uint64_t frames_ba = 0;
        std::uint64_t piggybacked = 0;     // acks that rode on data
        std::uint64_t standalone_acks = 0; // acks that cost their own frame
    };

    Result run();
    /// Both directions delivered and acknowledged, every payload intact.
    bool completed() const;

private:
    using Core = ba::EngineCore<ba::Sender, ba::Receiver>;
    using Endpoint = net::NetEndpoint<Core, SimPort>;

    /// One endpoint's view of the session: it originates \p count
    /// messages and sinks \p rx_count.
    static net::NetConfig endpoint_config(const DuplexConfig& cfg, Seq count, Seq rx_count);
    /// Deliveries at \p to of \p from's messages: verify the pattern
    /// bytes and time them against \p from's first transmission.
    void sink(Endpoint& to, const Endpoint& from, Histogram& latency);
    sim::Metrics direction(const Endpoint& from, const Endpoint& to, const ByteChannel& channel,
                           const Histogram& latency) const;

    DuplexConfig cfg_;
    sim::Simulator sim_;
    ChannelPair channels_;  // forward C_AB, reverse C_BA
    Endpoint a_;
    Endpoint b_;
    Histogram latency_ab_;
    Histogram latency_ba_;
    std::uint64_t mismatches_ = 0;
};

}  // namespace bacp::link
