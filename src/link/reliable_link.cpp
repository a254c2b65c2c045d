#include "link/reliable_link.hpp"

#include "runtime/session_util.hpp"

namespace bacp::link {

namespace {

net::NetConfig endpoint_config(const ReliableLink::Config& cfg) {
    net::NetConfig endpoint;
    endpoint.w = cfg.w;
    endpoint.link_lifetime = cfg.delay_hi;
    endpoint.timeout = cfg.timeout;
    endpoint.ack_policy = cfg.ack_policy;
    endpoint.enable_nak = cfg.enable_nak;
    endpoint.nak_threshold = cfg.nak_threshold;
    return endpoint;
}

}  // namespace

ReliableLink::ReliableLink(sim::Simulator& sim, Config config, LinkCore::Options options)
    : rng_data_(runtime::mix_seed(config.seed, 0xd1)),
      rng_ack_(runtime::mix_seed(config.seed, 0xac)),
      data_ch_(sim, rng_data_,
               ByteChannel::Config::lossy(config.loss, config.delay_lo, config.delay_hi,
                                          config.corrupt_p),
               "data"),
      ack_ch_(sim, rng_ack_,
              ByteChannel::Config::lossy(config.loss, config.delay_lo, config.delay_hi,
                                         config.corrupt_p),
              "ack"),
      link_(sim, data_ch_, ack_ch_, endpoint_config(config), options) {
    data_ch_.set_receiver(
        [this](const ByteChannel::Frame& f) { link_.receiver().handle_datagram(f); });
    ack_ch_.set_receiver(
        [this](const ByteChannel::Frame& f) { link_.sender().handle_datagram(f); });
}

}  // namespace bacp::link
