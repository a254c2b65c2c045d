#pragma once

/// \file multihop.hpp
/// Multi-hop reliability topologies built from SimLinks and frame relays.
///
/// Two classic architectures over the same chain of lossy hops:
///
///   EndToEndPath   reliability only at the edges; intermediate nodes are
///                  dumb store-and-forward frame relays.  A loss anywhere
///                  costs a retransmission across the WHOLE path.
///   HopByHopPath   every hop runs its own reliable link; intermediate
///                  nodes reassemble payloads and re-originate them.
///                  A loss costs one hop's retransmission, but every node
///                  keeps per-flow state and adds store-and-forward and
///                  (re)acknowledgment work.
///
/// bench_e14_multihop measures the trade — the end-to-end argument made
/// quantitative on this library's own protocol.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/sim_link.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

/// Store-and-forward frame relay: accepts frames from an upstream channel
/// and re-emits them downstream after a processing delay.  Relays are
/// oblivious to frame contents (they forward corrupted frames too -- CRC
/// is end-to-end).
class FrameRelay {
public:
    FrameRelay(sim::Simulator& sim, ByteChannel& downstream,
               SimTime processing_delay = 50 * kMicrosecond)
        : sim_(sim), downstream_(downstream), processing_delay_(processing_delay) {}

    void on_frame(const ByteChannel::Frame& frame) {
        ++forwarded_;
        // Init-capture: a plain copy-capture of the const ref would give
        // the closure a const member, making its move a throwing copy.
        sim_.schedule_after(processing_delay_, [this, frame = frame]() mutable {
            downstream_.send(std::move(frame));
        });
    }

    std::uint64_t forwarded() const { return forwarded_; }

private:
    sim::Simulator& sim_;
    ByteChannel& downstream_;
    SimTime processing_delay_;
    std::uint64_t forwarded_ = 0;
};

/// One physical hop of the chain.
struct HopSpec {
    double loss = 0.0;
    double corrupt_p = 0.0;
    SimTime delay_lo = 1 * kMillisecond;
    SimTime delay_hi = 2 * kMillisecond;
};

struct PathConfig {
    Seq w = 16;
    std::vector<HopSpec> hops;           // at least one
    SimTime relay_delay = 50 * kMicrosecond;  // per intermediate node
    runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
    bool enable_nak = false;
    std::uint64_t seed = 1;
};

/// Common surface of the two architectures.
class MultihopPath {
public:
    using DeliverFn = SimLink::DeliverFn;

    virtual ~MultihopPath() = default;
    virtual void send(std::vector<std::uint8_t> payload) = 0;
    virtual void set_on_deliver(DeliverFn fn) = 0;
    virtual Seq delivered_count() const = 0;
    virtual bool idle() const = 0;
    /// Total frames placed on any channel (data + ack directions, all hops).
    virtual std::uint64_t total_frames() const = 0;
    /// Total end-to-end retransmissions (e2e) or sum across hops (hbh).
    virtual std::uint64_t total_retransmissions() const = 0;
};

class EndToEndPath final : public MultihopPath {
public:
    EndToEndPath(sim::Simulator& sim, PathConfig config);

    void send(std::vector<std::uint8_t> payload) override { link_->send(std::move(payload)); }
    void set_on_deliver(DeliverFn fn) override { link_->set_on_deliver(std::move(fn)); }
    Seq delivered_count() const override { return link_->delivered_count(); }
    bool idle() const override { return link_->idle(); }
    std::uint64_t total_frames() const override;
    std::uint64_t total_retransmissions() const override { return link_->retransmissions(); }

private:
    std::vector<std::unique_ptr<ChannelPair>> hops_;   // hop i: node i <-> i+1
    std::vector<std::unique_ptr<FrameRelay>> relays_;  // keep-alive storage
    std::unique_ptr<SimLink> link_;  // sender at node 0, receiver at node k
};

class HopByHopPath final : public MultihopPath {
public:
    HopByHopPath(sim::Simulator& sim, PathConfig config);

    void send(std::vector<std::uint8_t> payload) override {
        ++accepted_;
        hops_.front().link->send(std::move(payload));
    }
    void set_on_deliver(DeliverFn fn) override { on_deliver_ = std::move(fn); }
    Seq delivered_count() const override { return delivered_; }
    bool idle() const override;
    std::uint64_t total_frames() const override;
    std::uint64_t total_retransmissions() const override;

private:
    struct Hop {
        std::unique_ptr<ChannelPair> channels;
        std::unique_ptr<SimLink> link;  // sender upstream, receiver downstream
    };

    std::vector<Hop> hops_;
    DeliverFn on_deliver_;
    Seq accepted_ = 0;
    Seq delivered_ = 0;
};

}  // namespace bacp::link
