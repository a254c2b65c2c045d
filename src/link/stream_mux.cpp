#include "link/stream_mux.hpp"

#include "common/assert.hpp"
#include "runtime/session_util.hpp"
#include "wire/codec.hpp"

namespace bacp::link {

namespace {

ByteChannel::Config data_config(const StreamMux::Config& cfg) {
    ByteChannel::Config config =
        ByteChannel::Config::lossy(cfg.loss, cfg.delay_lo, cfg.delay_hi, cfg.corrupt_p);
    config.service_time = cfg.service_time;
    config.queue_capacity = cfg.queue_capacity;
    return config;
}

}  // namespace

StreamMux::StreamMux(sim::Simulator& sim, Config config)
    : cfg_(std::move(config)),
      // Acks are small: no bottleneck modeled.
      channels_(sim, data_config(cfg_),
                ByteChannel::Config::lossy(cfg_.loss, cfg_.delay_lo, cfg_.delay_hi, cfg_.corrupt_p),
                runtime::mix_seed(cfg_.seed, 0xd1), runtime::mix_seed(cfg_.seed, 0xac)) {
    BACP_ASSERT_MSG(cfg_.streams >= 1, "need at least one stream");
    // A frame can wait behind the shared bottleneck queue.
    const SimTime lifetime =
        cfg_.delay_hi + (cfg_.service_time > 0
                             ? cfg_.service_time * static_cast<SimTime>(cfg_.queue_capacity + 1)
                             : 0);
    net::NetConfig endpoint = link_config(cfg_.w, lifetime, cfg_.ack_policy, cfg_.enable_nak);
    for (Seq id = 0; id < cfg_.streams; ++id) {
        endpoint.stream = id;
        links_.push_back(
            std::make_unique<SimLink>(sim, channels_.forward, channels_.reverse, endpoint));
        links_.back()->set_on_deliver([this, id](std::span<const std::uint8_t> payload) {
            if (on_deliver_) on_deliver_(id, payload);
        });
    }
    channels_.forward.set_receiver(
        [this](const ByteChannel::Frame& f) { route(f, /*data=*/true); });
    channels_.reverse.set_receiver(
        [this](const ByteChannel::Frame& f) { route(f, /*data=*/false); });
}

void StreamMux::send(Seq stream, std::vector<std::uint8_t> payload) {
    BACP_ASSERT_MSG(stream < cfg_.streams, "stream id out of range");
    links_[static_cast<std::size_t>(stream)]->send(std::move(payload));
}

void StreamMux::route(const ByteChannel::Frame& frame, bool data) {
    const wire::ViewResult result = wire::decode_view(frame);
    if (!result.ok() || (result.frame().flags & wire::kFlagStream) == 0 ||
        result.frame().stream >= cfg_.streams) {
        ++misdirected_;  // corrupted frames count as loss, exactly like point-to-point
        return;
    }
    SimLink& link = *links_[static_cast<std::size_t>(result.frame().stream)];
    (data ? link.receiver() : link.sender()).handle_frame(result.frame());
}

Seq StreamMux::delivered_count(Seq stream) const {
    BACP_ASSERT(stream < cfg_.streams);
    return links_[static_cast<std::size_t>(stream)]->delivered_count();
}

bool StreamMux::idle() const {
    for (const auto& link : links_) {
        if (!link->idle()) return false;
    }
    return true;
}

std::uint64_t StreamMux::retransmissions() const {
    std::uint64_t total = 0;
    for (const auto& link : links_) total += link->retransmissions();
    return total;
}

}  // namespace bacp::link
