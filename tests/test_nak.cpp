// Tests for the NAK fast-retransmit extension: wire framing, the
// receiver's proof-of-loss rule (core and driver level, on every
// block-ack core), session behavior (latency reduction, safety
// preservation), ReliableLink integration, and no-op behavior when
// disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "link/reliable_link.hpp"
#include "net/clock.hpp"
#include "net/impairer.hpp"
#include "net/net_session.hpp"
#include "runtime/ba_session.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"

namespace bacp {
namespace {

using namespace bacp::literals;

// ---------------------------------------------------------------- framing --

TEST(NakWire, RoundTrip) {
    const auto frame = wire::encode_nak(42, wire::kFlagBoundedSeq);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    const auto& nak = std::get<wire::NakFrame>(result.frame());
    EXPECT_EQ(nak.seq, 42u);
    EXPECT_EQ(nak.flags, wire::kFlagBoundedSeq);
}

TEST(NakWire, MessageRoundTrip) {
    const proto::Message msg = proto::Nak{7};
    const auto frame = wire::encode_message(msg);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(wire::to_message(result.frame()), msg);
}

TEST(NakWire, EveryBitFlipDetected) {
    const auto frame = wire::encode_nak(9);
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        auto copy = frame;
        copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_FALSE(wire::decode(copy).ok()) << bit;
    }
}

TEST(NakMessage, ToString) {
    EXPECT_EQ(proto::to_string(proto::Message{proto::Nak{3}}), "N(3)");
}

// ------------------------------------------------------------ proof rule --
//
// The receiver NAKs the hole at vr only once a higher message has been
// held for the data lifetime L.  Every first transmission leaves in
// sequence order, so by then the hole's first copy has aged out of the
// channel: the NAK names a proved loss, never a copy still in transit.

constexpr SimTime kL = 13 * kMillisecond;

runtime::EngineConfig proof_config(Seq w) {
    runtime::EngineConfig cfg;
    cfg.w = w;
    cfg.data_link = runtime::LinkSpec::lossless(0, kL);
    cfg.ack_link = runtime::LinkSpec::lossless(0, kL);
    cfg.enable_nak = true;
    return cfg;
}

template <typename Core>
class NakProof : public ::testing::Test {};

using BaCores = ::testing::Types<ba::EngineCore<ba::Sender, ba::Receiver>,
                                 ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>,
                                 ba::EngineCore<ba::HoleReuseSender, ba::Receiver>>;
TYPED_TEST_SUITE(NakProof, BaCores);

/// The wire field of true sequence number \p seq: a residue mod 2w on
/// the bounded core, the number itself elsewhere.
template <typename Core>
Seq field_of(Seq seq, Seq w) {
    if constexpr (requires(const Core& c) { c.ack_wire_domain(); }) {
        return seq % (2 * w);
    } else {
        return seq;
    }
}

TYPED_TEST(NakProof, NoNakBeforeTheFirstLaterArrivalHasWaitedL) {
    constexpr Seq kW = 8;
    TypeParam core(proof_config(kW));
    // Hole at base; base + 1 is the first later arrival.  The bounded
    // core wraps at 2w, so base lies past one wrap to exercise residues.
    const Seq base = 3 * kW;
    for (Seq i = 0; i < base; ++i) {
        ASSERT_FALSE(core.on_data(proto::Data{field_of<TypeParam>(i, kW)}, 0).nak);
        (void)core.make_ack();
    }
    const SimTime t0 = kMillisecond;
    auto at = [&](Seq i, SimTime t) {
        return core.on_data(proto::Data{field_of<TypeParam>(base + i, kW)}, t);
    };
    EXPECT_FALSE(at(1, t0).nak);
    EXPECT_FALSE(at(2, t0 + kMillisecond).nak);
    EXPECT_FALSE(at(3, t0 + kL - 1).nak);
    const auto proved = at(4, t0 + kL);
    ASSERT_TRUE(proved.nak);
    EXPECT_EQ(proved.nak->seq, field_of<TypeParam>(base, kW));
    EXPECT_FALSE(at(5, t0 + kL + 1).nak) << "one NAK per position per NAK round trip";
}

TYPED_TEST(NakProof, ReorderedChainWithinLIsNeverNaked) {
    // Holes at 0 and 1, both carried by a reorder spike of up to L;
    // later messages arrive 3 ms after their 1 ms-spaced sends.  When 0
    // lands, vr moves onto the second hole, whose first later arrival is
    // just as old: it is not NAKed either.
    constexpr Seq kW = 16;
    TypeParam core(proof_config(kW));
    const SimTime delay = 3 * kMillisecond;
    std::vector<std::pair<SimTime, Seq>> arrivals;
    for (Seq i = 2; i < kW; ++i) {
        arrivals.emplace_back(static_cast<SimTime>(i) * kMillisecond + delay, i);
    }
    arrivals.emplace_back(kL, 0);                    // sent at 0, transit L
    arrivals.emplace_back(kMillisecond + kL - 1, 1);  // sent at 1 ms
    std::sort(arrivals.begin(), arrivals.end());
    Seq delivered = 0;
    for (const auto& [t, i] : arrivals) {
        const auto out = core.on_data(proto::Data{field_of<TypeParam>(i, kW)}, t);
        EXPECT_FALSE(out.nak) << "message " << i << " at " << t;
        delivered += out.delivered;
    }
    EXPECT_EQ(delivered, kW);
}

// ------------------------------------------------------------- driver level --
//
// A sender and a receiver NetEndpoint over an InprocTransport pair in
// ManualClock time, one message released every 250 us.  The sender's
// egress goes through a scripted channel: every datagram takes 3 ms,
// plus a per-datagram extra delay or a drop, keyed by the 0-based index
// of the datagram the sender offered.

/// A Transport decorator that delays or drops datagrams by script.
class ScriptedChannel final : public net::Transport {
public:
    ScriptedChannel(net::Transport& inner, net::TimerWheel& wheel, SimTime delay,
                    std::map<std::uint64_t, SimTime> extra, std::set<std::uint64_t> drops)
        : inner_(&inner),
          wheel_(&wheel),
          delay_(delay),
          extra_(std::move(extra)),
          drops_(std::move(drops)) {}

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override {
        for (const auto& d : datagrams) {
            const std::uint64_t index = offered_++;
            if (drops_.contains(index)) continue;
            const auto it = extra_.find(index);
            const SimTime delay = delay_ + (it == extra_.end() ? 0 : it->second);
            const std::size_t slot = parked_.size();
            parked_.emplace_back(d.begin(), d.end());
            wheel_->schedule_after(delay, [this, slot] {
                const std::span<const std::uint8_t> one[] = {parked_[slot]};
                inner_->send_batch(one);
            });
        }
        return datagrams.size();
    }
    std::size_t recv_batch(net::RecvBatch& batch) override { return inner_->recv_batch(batch); }

private:
    net::Transport* inner_;
    net::TimerWheel* wheel_;
    SimTime delay_;
    std::map<std::uint64_t, SimTime> extra_;
    std::set<std::uint64_t> drops_;
    std::uint64_t offered_ = 0;
    std::vector<std::vector<std::uint8_t>> parked_;
};

struct ScriptedRun {
    sim::Metrics tx;
    sim::Metrics rx;
    std::vector<runtime::Decision> log;
    SimTime timeout = 0;
};

constexpr SimTime kInterval = 250 * kMicrosecond;
constexpr SimTime kDelay = 3 * kMillisecond;

template <typename Core>
ScriptedRun scripted_run(std::map<std::uint64_t, SimTime> extra,
                         std::set<std::uint64_t> drops) {
    constexpr Seq kCount = 120;
    net::ManualClock clock;
    net::TimerWheel wheel_s(clock);
    net::TimerWheel wheel_r(clock);
    auto [ts, tr] = net::InprocTransport::make_pair();
    ScriptedChannel data(*ts, wheel_s, kDelay, std::move(extra), std::move(drops));
    net::ImpairSpec back;
    back.delay_lo = kDelay;
    back.delay_hi = kDelay;
    net::Impairer acks(*tr, wheel_r, back, 2);

    net::NetConfig cfg;
    cfg.w = 64;
    cfg.payload_size = 16;
    cfg.link_lifetime = kL;
    cfg.enable_nak = true;
    cfg.arrival_interval = kInterval;
    net::NetConfig tx_cfg = cfg;
    tx_cfg.count = kCount;
    net::NetConfig rx_cfg = cfg;
    rx_cfg.count = 0;
    rx_cfg.rx_count = kCount;
    net::NetEndpoint<Core> sender(tx_cfg, {}, wheel_s, data);
    net::NetEndpoint<Core> receiver(rx_cfg, {}, wheel_r, acks);
    ScriptedRun run;
    runtime::DecisionLog log;
    sender.set_decision_log(&log);
    receiver.set_decision_log(&log);

    sender.start();
    receiver.start();
    const net::TimerWheel* const wheels[] = {&wheel_s, &wheel_r};
    for (int steps = 0; steps < 100000 && !(sender.done() && receiver.done()); ++steps) {
        if (sender.poll() + receiver.poll() > 0) continue;
        const std::optional<SimTime> next = net::earliest_deadline(wheels);
        if (!next) break;  // wedged: the asserts below report it
        clock.advance_to(*next);
    }
    EXPECT_TRUE(sender.done() && receiver.done());
    EXPECT_EQ(receiver.delivered(), kCount);
    EXPECT_EQ(receiver.payload_mismatches(), 0u);
    run.tx = sender.tx_metrics();
    run.rx = receiver.rx_metrics();
    run.log = log.entries;
    run.timeout = tx_cfg.effective_timeout();
    return run;
}

template <typename Core>
class NakDriver : public ::testing::Test {};
TYPED_TEST_SUITE(NakDriver, BaCores);

// duplex_lossy's chain: message 8 and message 9 are both carried by a
// reorder spike, 9 for the full L, and 8 lands just as 9's copy turns
// 10 ms old.  A receiver that NAKs after a few out-of-order arrivals
// names 9 right after 8 lands; that NAK reaches the sender once 9's copy
// is L old, so the sender resends a message that arrives anyway.
TYPED_TEST(NakDriver, ReorderedChainWithinLCostsNoResendAndNoDuplicate) {
    const ScriptedRun run = scripted_run<TypeParam>(
        {{8, 7 * kMillisecond + kMillisecond / 4}, {9, kL - kDelay}}, {});
    EXPECT_EQ(run.rx.naks_sent, 0u);
    EXPECT_EQ(run.tx.fast_retx, 0u);
    EXPECT_EQ(run.tx.data_retx, 0u);
    EXPECT_EQ(run.rx.duplicates, 0u);
}

// Message 8 is lost.  Message 9 arrives 3 ms after 8 would have left,
// so 8 is proved lost L later; the NAK and its resend recover it a
// round trip after that, well before 8's retransmission timer fires.
TYPED_TEST(NakDriver, RealLossIsNakedAndRecoveredBeforeTheTimeout) {
    const ScriptedRun run = scripted_run<TypeParam>({}, {8});
    EXPECT_EQ(run.rx.naks_sent, 1u);
    EXPECT_EQ(run.tx.fast_retx, 1u);
    EXPECT_EQ(run.tx.data_retx, 1u);
    EXPECT_EQ(run.rx.duplicates, 0u);
    std::map<Seq, SimTime> sent_at;
    std::optional<SimTime> nak_at;
    std::optional<SimTime> delivered_at;
    for (const runtime::Decision& d : run.log) {
        if (d.kind == runtime::Decision::Send) sent_at[d.lo] = d.time;
        if (d.kind == runtime::Decision::Nak && !nak_at) nak_at = d.time;
        if (d.kind == runtime::Decision::Deliver && d.lo == 8) delivered_at = d.time;
    }
    const SimTime first_later = sent_at[9] + kDelay;
    ASSERT_TRUE(nak_at);
    EXPECT_GE(*nak_at, first_later + kL);
    EXPECT_LT(*nak_at, first_later + kL + kInterval);
    ASSERT_TRUE(delivered_at);
    EXPECT_LT(*delivered_at, sent_at[8] + run.timeout);
}

// ---------------------------------------------------------------- session --

runtime::EngineConfig lossy_config(Seq w, Seq count, double loss, std::uint64_t seed,
                                    bool nak) {
    runtime::EngineConfig cfg;
    cfg.w = w;
    cfg.count = count;
    cfg.data_link = runtime::LinkSpec::lossy(loss);
    cfg.ack_link = runtime::LinkSpec::lossy(loss);
    cfg.seed = seed;
    cfg.enable_nak = nak;
    return cfg;
}

TEST(NakSession, DisabledMeansNoNakTraffic) {
    runtime::UnboundedSession session(lossy_config(16, 500, 0.1, 5, false));
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.naks_sent, 0u);
    EXPECT_EQ(metrics.fast_retx, 0u);
}

TEST(NakSession, EnabledCompletesAndUsesFastRetransmit) {
    runtime::UnboundedSession session(lossy_config(16, 500, 0.1, 5, true));
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 500u);
    EXPECT_GT(metrics.naks_sent, 0u);
    EXPECT_GT(metrics.fast_retx, 0u);
}

TEST(NakSession, ReducesTailLatencyUnderLoss) {
    runtime::UnboundedSession plain(lossy_config(16, 1000, 0.08, 17, false));
    const auto without = plain.run();
    runtime::UnboundedSession fast(lossy_config(16, 1000, 0.08, 17, true));
    const auto with = fast.run();
    ASSERT_TRUE(plain.completed());
    ASSERT_TRUE(fast.completed());
    // A lost message otherwise waits a full conservative timeout; the NAK
    // path recovers it in about one extra round trip.
    EXPECT_LT(with.latency.quantile(0.99), without.latency.quantile(0.99));
}

TEST(NakSession, BoundedSessionSupportsNaks) {
    runtime::EngineConfig cfg = lossy_config(8, 400, 0.1, 23, true);
    runtime::BoundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.delivered, 400u);
    EXPECT_GT(metrics.naks_sent, 0u);
}

TEST(NakSession, InvariantsHoldWithNaksEnabled) {
    // NAK-triggered retransmissions must preserve assertions 6-8 (relaxed
    // channel mode for the per-message-timer configuration).
    auto cfg = lossy_config(8, 300, 0.15, 29, true);
    cfg.check_invariants = true;
    runtime::UnboundedSession session(cfg);
    session.run();  // throws on violation
    EXPECT_TRUE(session.completed());
}

TEST(NakSession, NoLossMeansNoNaksWithFifo) {
    // Without loss AND without reorder nothing ever blocks vr: the
    // threshold is never reached.
    auto cfg = lossy_config(16, 500, 0.0, 31, true);
    cfg.data_link.fifo = true;
    cfg.ack_link.fifo = true;
    runtime::UnboundedSession session(cfg);
    const auto metrics = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(metrics.naks_sent, 0u);
}

// ------------------------------------------------------------ reliable link --

TEST(NakLink, CompletesWithFastRetransmit) {
    sim::Simulator sim;
    link::ReliableLink::Config cfg{.w = 8, .loss = 0.15, .seed = 37};
    cfg.enable_nak = true;
    link::ReliableLink link(sim, cfg);
    Seq delivered = 0;
    link.set_on_deliver([&](std::span<const std::uint8_t>) { ++delivered; });
    for (int i = 0; i < 300; ++i) link.send({static_cast<std::uint8_t>(i)});
    sim.run();
    EXPECT_EQ(delivered, 300u);
    EXPECT_TRUE(link.idle());
    EXPECT_GT(link.naks_sent(), 0u);
    EXPECT_GT(link.fast_retransmissions(), 0u);
}

TEST(NakLink, InOrderExactlyOnceUnderChaosWithNaks) {
    sim::Simulator sim;
    link::ReliableLink::Config cfg{
        .w = 8, .loss = 0.2, .corrupt_p = 0.05, .delay_lo = 1_ms, .delay_hi = 9_ms, .seed = 41};
    cfg.enable_nak = true;
    link::ReliableLink link(sim, cfg);
    std::vector<std::uint8_t> order;
    link.set_on_deliver(
        [&](std::span<const std::uint8_t> p) { order.push_back(p.front()); });
    for (int i = 0; i < 200; ++i) link.send({static_cast<std::uint8_t>(i)});
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i) ASSERT_EQ(order[static_cast<std::size_t>(i)], i % 256);
}

}  // namespace
}  // namespace bacp
