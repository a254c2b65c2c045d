#pragma once

/// \file byte_channel.hpp
/// Discrete-event channel carrying raw frames (byte vectors).
///
/// Beyond loss and delay (same models as SimChannel), a byte channel can
/// *corrupt* frames by flipping random bits.  Corruption is not loss: the
/// damaged bytes are delivered and it is the codec's CRC that must turn
/// them into an effective loss -- exercising the integrity path end to
/// end is the point of the link layer tests and examples.

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "channel/delay_model.hpp"
#include "channel/loss_model.hpp"
#include "common/rng.hpp"
#include "runtime/link_spec.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

struct ByteChannelStats {
    std::uint64_t sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t corrupted = 0;
    std::uint64_t delivered = 0;  // includes corrupted deliveries
    std::uint64_t bytes_sent = 0;
};

class ByteChannel {
public:
    using Frame = std::vector<std::uint8_t>;
    using Receiver = std::function<void(const Frame&)>;

    struct Config {
        std::unique_ptr<channel::LossModel> loss;    // nullptr -> NoLoss
        std::unique_ptr<channel::DelayModel> delay;  // nullptr -> FixedDelay(1ms)
        double corrupt_p = 0.0;  // probability a surviving frame gets a bit flip
        /// Bottleneck-link model (0 = off): per-frame serialization time
        /// and a finite tail-drop queue (see sim::SimChannel::Config).
        SimTime service_time = 0;
        /// Additional per-byte serialization (0 = off): a frame of n bytes
        /// occupies the link for service_time + n * service_per_byte, so
        /// small ack frames are genuinely cheaper than payload frames.
        SimTime service_per_byte = 0;
        std::size_t queue_capacity = 64;

        /// Bernoulli loss (none at 0), uniform delay in [delay_lo,
        /// delay_hi] and bit-flip corruption: the shape of every link
        /// channel.
        static Config lossy(double loss, SimTime delay_lo, SimTime delay_hi,
                            double corrupt_p = 0.0);
        /// The loss, delay and bottleneck models a LinkSpec describes
        /// (its SimChannel-only knobs, fifo and content tracking, must be
        /// off).
        static Config from_spec(const runtime::LinkSpec& spec);
    };

    ByteChannel(sim::Simulator& sim, Rng& rng, Config config);

    void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

    void send(Frame frame);

    std::size_t in_flight() const { return in_flight_; }
    SimTime max_lifetime() const { return delay_->max_delay(); }
    const ByteChannelStats& stats() const { return stats_; }

private:
    sim::Simulator& sim_;
    Rng& rng_;
    std::unique_ptr<channel::LossModel> loss_;
    std::unique_ptr<channel::DelayModel> delay_;
    double corrupt_p_;
    SimTime service_time_;
    SimTime service_per_byte_;
    std::size_t queue_capacity_;
    Receiver receiver_;
    ByteChannelStats stats_;
    std::size_t in_flight_ = 0;
    SimTime link_free_at_ = 0;  // bottleneck: next departure slot
    std::size_t queued_ = 0;    // frames waiting for / in serialization
};

/// Two opposite channels, each drawing loss and delay from its own RNG
/// stream: the private pair under ReliableLink, StreamMux and
/// DuplexSession, and each hop of a multihop path.  The channels hold
/// references to the RNGs beside them, so a pair never moves.
struct ChannelPair {
    ChannelPair(sim::Simulator& sim, ByteChannel::Config forward_cfg,
                ByteChannel::Config reverse_cfg, std::uint64_t forward_seed,
                std::uint64_t reverse_seed)
        : forward_rng(forward_seed),
          reverse_rng(reverse_seed),
          forward(sim, forward_rng, std::move(forward_cfg)),
          reverse(sim, reverse_rng, std::move(reverse_cfg)) {}
    ChannelPair(const ChannelPair&) = delete;
    ChannelPair& operator=(const ChannelPair&) = delete;

    /// Frames placed on either direction.
    std::uint64_t frames() const { return forward.stats().sent + reverse.stats().sent; }

    Rng forward_rng;
    Rng reverse_rng;
    ByteChannel forward;  // upstream -> downstream (a link's data)
    ByteChannel reverse;  // downstream -> upstream (a link's acks)
};

}  // namespace bacp::link
