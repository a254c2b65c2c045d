#include "link/duplex_session.hpp"

#include <algorithm>
#include <vector>

#include "runtime/session_util.hpp"

namespace bacp::link {

namespace {
// Pattern bytes per message: enough to catch a misdelivery, small
// enough that frame sizes stay near the bare protocol's.
constexpr std::size_t kPayloadBytes = 16;
}  // namespace

net::NetConfig DuplexSession::endpoint_config(const DuplexConfig& cfg, Seq count, Seq rx_count) {
    net::NetConfig net;
    net.w = cfg.w;
    net.count = count;
    net.rx_count = rx_count;
    net.timeout = cfg.timeout;
    net.piggyback = cfg.piggyback;
    net.piggyback_delay = cfg.piggyback_delay;
    net.ack_policy = runtime::AckPolicy::delayed(cfg.piggyback_delay);
    // One lifetime for both directions: the longer one is conservative
    // for the timeout, the send horizon and NAK gating alike.
    net.link_lifetime = std::max(cfg.ab_link.max_lifetime(), cfg.ba_link.max_lifetime());
    net.seed = cfg.seed;
    net.payload_size = kPayloadBytes;
    return net;
}

DuplexSession::DuplexSession(DuplexConfig config)
    : cfg_(std::move(config)),
      channels_(sim_, ByteChannel::Config::from_spec(cfg_.ab_link),
                ByteChannel::Config::from_spec(cfg_.ba_link), runtime::mix_seed(cfg_.seed, 0xab),
                runtime::mix_seed(cfg_.seed, 0xba)),
      a_(endpoint_config(cfg_, cfg_.count_a_to_b, cfg_.count_b_to_a), {}, sim_,
         channels_.forward),
      b_(endpoint_config(cfg_, cfg_.count_b_to_a, cfg_.count_a_to_b), {}, sim_,
         channels_.reverse) {
    channels_.forward.set_receiver([this](const ByteChannel::Frame& f) { b_.handle_datagram(f); });
    channels_.reverse.set_receiver([this](const ByteChannel::Frame& f) { a_.handle_datagram(f); });
    sink(b_, a_, latency_ab_);
    sink(a_, b_, latency_ba_);
}

void DuplexSession::sink(Endpoint& to, const Endpoint& from, Histogram& latency) {
    to.set_deliver_sink([this, &from, &latency, expected = std::vector<std::uint8_t>()](
                            Seq seq, std::span<const std::uint8_t> payload) mutable {
        expected.resize(payload.size());
        net::pattern_fill(seq, expected);
        if (!std::equal(payload.begin(), payload.end(), expected.begin())) ++mismatches_;
        latency.add(sim_.now() - from.tx_driver().first_sent_at(seq));
    });
}

DuplexSession::Result DuplexSession::run() {
    a_.start();
    b_.start();
    sim_.run_until(cfg_.deadline, cfg_.max_events);
    Result result;
    result.a_to_b = direction(a_, b_, channels_.forward, latency_ab_);
    result.b_to_a = direction(b_, a_, channels_.reverse, latency_ba_);
    result.frames_ab = channels_.forward.stats().sent;
    result.frames_ba = channels_.reverse.stats().sent;
    result.piggybacked = a_.piggybacked() + b_.piggybacked();
    result.standalone_acks = a_.standalone_acks() + b_.standalone_acks();
    return result;
}

sim::Metrics DuplexSession::direction(const Endpoint& from, const Endpoint& to,
                                      const ByteChannel& channel, const Histogram& latency) const {
    sim::Metrics m = from.tx_metrics();
    m.add_counters_from(to.rx_metrics());
    m.latency = latency;
    m.end_time = to.rx_metrics().end_time > 0 ? to.rx_metrics().end_time : sim_.now();
    m.sr_dropped = channel.stats().dropped;
    return m;
}

bool DuplexSession::completed() const { return a_.done() && b_.done() && mismatches_ == 0; }

}  // namespace bacp::link
