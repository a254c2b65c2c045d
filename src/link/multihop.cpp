#include "link/multihop.hpp"

#include "common/assert.hpp"
#include "runtime/session_util.hpp"

namespace bacp::link {

namespace {

using runtime::mix_seed;

/// Both directions of one physical hop, drawing from RNG streams
/// mix_seed(seed, stream) and stream + 1.
std::unique_ptr<ChannelPair> make_hop(sim::Simulator& sim, const HopSpec& hop, std::uint64_t seed,
                                      std::uint64_t stream) {
    const auto channel = [&hop] {
        return ByteChannel::Config::lossy(hop.loss, hop.delay_lo, hop.delay_hi, hop.corrupt_p);
    };
    return std::make_unique<ChannelPair>(sim, channel(), channel(), mix_seed(seed, stream),
                                         mix_seed(seed, stream + 1));
}

SimTime path_lifetime(const PathConfig& cfg) {
    SimTime total = 0;
    for (const auto& hop : cfg.hops) total += hop.delay_hi;
    total += cfg.relay_delay * static_cast<SimTime>(cfg.hops.size() - 1);
    return total;
}

}  // namespace

// -------------------------------------------------------------- EndToEndPath

EndToEndPath::EndToEndPath(sim::Simulator& sim, PathConfig config) {
    BACP_ASSERT_MSG(!config.hops.empty(), "a path needs at least one hop");
    const std::size_t k = config.hops.size();
    for (std::size_t i = 0; i < k; ++i) {
        hops_.push_back(make_hop(sim, config.hops[i], config.seed, 2 * i));
    }

    link_ = std::make_unique<SimLink>(
        sim, hops_.front()->forward, hops_.back()->reverse,
        link_config(config.w, path_lifetime(config), config.ack_policy, config.enable_nak));

    // Forward chain: hop i delivers into a relay feeding hop i+1; the last
    // hop delivers to the receiver.
    for (std::size_t i = 0; i + 1 < k; ++i) {
        relays_.push_back(std::make_unique<FrameRelay>(sim, hops_[i + 1]->forward,
                                                       config.relay_delay));
        FrameRelay* relay = relays_.back().get();
        hops_[i]->forward.set_receiver(
            [relay](const ByteChannel::Frame& frame) { relay->on_frame(frame); });
    }
    hops_.back()->forward.set_receiver(
        [this](const ByteChannel::Frame& frame) { link_->receiver().handle_datagram(frame); });

    // Reverse chain: hop i+1's reverse channel relays into hop i's; hop 0
    // delivers to the sender.
    for (std::size_t i = k; i-- > 1;) {
        relays_.push_back(std::make_unique<FrameRelay>(sim, hops_[i - 1]->reverse,
                                                       config.relay_delay));
        FrameRelay* relay = relays_.back().get();
        hops_[i]->reverse.set_receiver(
            [relay](const ByteChannel::Frame& frame) { relay->on_frame(frame); });
    }
    hops_.front()->reverse.set_receiver(
        [this](const ByteChannel::Frame& frame) { link_->sender().handle_datagram(frame); });
}

std::uint64_t EndToEndPath::total_frames() const {
    std::uint64_t total = 0;
    for (const auto& hop : hops_) total += hop->frames();
    return total;
}

// -------------------------------------------------------------- HopByHopPath

HopByHopPath::HopByHopPath(sim::Simulator& sim, PathConfig config) {
    BACP_ASSERT_MSG(!config.hops.empty(), "a path needs at least one hop");
    const std::size_t k = config.hops.size();
    hops_.resize(k);
    for (std::size_t i = 0; i < k; ++i) {
        Hop& hop = hops_[i];
        hop.channels = make_hop(sim, config.hops[i], config.seed, 100 + 2 * i);
        hop.link = std::make_unique<SimLink>(
            sim, hop.channels->forward, hop.channels->reverse,
            link_config(config.w, config.hops[i].delay_hi, config.ack_policy, config.enable_nak));
        SimLink* link = hop.link.get();
        hop.channels->forward.set_receiver(
            [link](const ByteChannel::Frame& frame) { link->receiver().handle_datagram(frame); });
        hop.channels->reverse.set_receiver(
            [link](const ByteChannel::Frame& frame) { link->sender().handle_datagram(frame); });
    }
    // Intermediate nodes re-originate each delivered payload on the next
    // hop (store-and-forward with per-hop reliability); the final hop
    // delivers to the application.
    for (std::size_t i = 0; i + 1 < k; ++i) {
        SimLink* next = hops_[i + 1].link.get();
        hops_[i].link->set_on_deliver([next](std::span<const std::uint8_t> payload) {
            next->send(std::vector<std::uint8_t>(payload.begin(), payload.end()));
        });
    }
    hops_.back().link->set_on_deliver([this](std::span<const std::uint8_t> payload) {
        ++delivered_;
        if (on_deliver_) on_deliver_(payload);
    });
}

bool HopByHopPath::idle() const {
    if (delivered_ != accepted_) return false;
    for (const auto& hop : hops_) {
        if (!hop.link->idle()) return false;
    }
    return true;
}

std::uint64_t HopByHopPath::total_frames() const {
    std::uint64_t total = 0;
    for (const auto& hop : hops_) total += hop.channels->frames();
    return total;
}

std::uint64_t HopByHopPath::total_retransmissions() const {
    std::uint64_t total = 0;
    for (const auto& hop : hops_) total += hop.link->retransmissions();
    return total;
}

}  // namespace bacp::link
