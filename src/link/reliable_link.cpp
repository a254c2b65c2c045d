#include "link/reliable_link.hpp"

#include "runtime/session_util.hpp"

namespace bacp::link {

namespace {

ByteChannel::Config channel_config(const ReliableLink::Config& cfg) {
    return ByteChannel::Config::lossy(cfg.loss, cfg.delay_lo, cfg.delay_hi, cfg.corrupt_p);
}

net::NetConfig endpoint_config(const ReliableLink::Config& cfg) {
    net::NetConfig endpoint = link_config(cfg.w, cfg.delay_hi, cfg.ack_policy, cfg.enable_nak);
    endpoint.timeout = cfg.timeout;
    return endpoint;
}

}  // namespace

ReliableLink::ReliableLink(sim::Simulator& sim, Config config, LinkCore::Options options)
    : ChannelPair(sim, channel_config(config), channel_config(config),
                  runtime::mix_seed(config.seed, 0xd1), runtime::mix_seed(config.seed, 0xac)),
      SimLink(sim, forward, reverse, endpoint_config(config), options) {
    forward.set_receiver([this](const ByteChannel::Frame& f) { receiver().handle_datagram(f); });
    reverse.set_receiver([this](const ByteChannel::Frame& f) { sender().handle_datagram(f); });
}

}  // namespace bacp::link
