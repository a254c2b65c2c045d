// The send horizon at the driver (tier 1): a sender and a receiver
// NetEndpoint over an InprocTransport pair, delayed by an Impairer, in
// ManualClock time.  Every ack here beats the channel lifetime L, so
// every acknowledged message arms its own cap (ns <= i + w until
// last_tx(i) + L).  The tests pin the rule's scope both ways: a paced
// stream below w per L never waits, and a stream that outruns w per L
// waits for each cap to the instant its own copy ages out, and no
// longer.  The rule's unit tests are SendHorizon.* in
// test_runtime_util.cpp.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/clock.hpp"
#include "net/impairer.hpp"
#include "net/net_session.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr Seq kW = 4;
constexpr SimTime kL = 10 * kMillisecond;

struct PacedRun {
    std::vector<SimTime> sent_at;  // first transmission of each message
    std::uint64_t stalls = 0;      // pumps stopped by the send gate
    std::uint64_t retx = 0;
};

/// Sends \p count messages, one released every \p interval, with a
/// one-way delay of \p delay each way, and returns when each left.
PacedRun paced_run(Seq count, SimTime interval, SimTime delay) {
    ManualClock clock;
    TimerWheel wheel_s(clock);
    TimerWheel wheel_r(clock);
    auto [ts, tr] = InprocTransport::make_pair();
    ImpairSpec spec;
    spec.delay_lo = delay;
    spec.delay_hi = delay;
    Impairer imp_s(*ts, wheel_s, spec, 1);
    Impairer imp_r(*tr, wheel_r, spec, 2);

    NetConfig cfg;
    cfg.w = kW;
    cfg.payload_size = 16;
    cfg.link_lifetime = kL;
    cfg.timeout = kSecond;
    cfg.arrival_interval = interval;
    NetConfig tx_cfg = cfg;
    tx_cfg.count = count;
    NetConfig rx_cfg = cfg;
    rx_cfg.count = 0;
    rx_cfg.rx_count = count;
    NetEndpoint<Core> sender(tx_cfg, {}, wheel_s, imp_s);
    NetEndpoint<Core> receiver(rx_cfg, {}, wheel_r, imp_r);
    runtime::DecisionLog log;
    sender.set_decision_log(&log);

    sender.start();
    receiver.start();
    const TimerWheel* const wheels[] = {&wheel_s, &wheel_r};
    for (int steps = 0; steps < 100000 && !(sender.done() && receiver.done()); ++steps) {
        if (sender.poll() + receiver.poll() > 0) continue;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        if (!next) break;  // wedged: the asserts below report it
        clock.advance_to(*next);
    }
    EXPECT_TRUE(sender.done() && receiver.done());
    EXPECT_EQ(receiver.delivered(), count);
    EXPECT_EQ(receiver.payload_mismatches(), 0u);

    PacedRun run;
    for (const runtime::Decision& d : log.entries) {
        if (d.endpoint == 'S' && d.kind == runtime::Decision::Send) run.sent_at.push_back(d.time);
    }
    run.stalls = sender.tx_metrics().send_gate_stalls;
    run.retx = sender.tx_metrics().data_retx;
    return run;
}

// Half the w / L rate, acks back within 2 ms: message i + w leaves 10 ms
// after message i, exactly when i's copy ages out, so no send waits.  A
// horizon that keeps the tightest cap until the latest expiry holds
// message w back until the newest copy ages out, and then every w
// messages after it.
TEST(SendHorizonDriver, PacedStreamBelowWPerLNeverStalls) {
    constexpr Seq kCount = 64;
    constexpr SimTime kInterval = 5 * kMillisecond;  // 200/s against w / L = 400/s
    const PacedRun run = paced_run(kCount, kInterval, kMillisecond);
    ASSERT_EQ(run.sent_at.size(), kCount);
    EXPECT_EQ(run.stalls, 0u);
    EXPECT_EQ(run.retx, 0u);
    for (Seq i = 1; i < kCount; ++i) {
        EXPECT_EQ(run.sent_at[i] - run.sent_at[i - 1], kInterval) << "message " << i;
    }
}

// 2.5 times the w / L rate: message i + w is released before i's copy
// can have aged out, and it leaves at last_tx(i) + L exactly -- each cap
// lifts at its own instant, so the sends after the first window stay
// spaced like the releases that fed them.
TEST(SendHorizonDriver, SendOfIPlusWWaitsUntilItsCopyAgesOutAndNoLonger) {
    constexpr Seq kCount = 24;
    constexpr SimTime kInterval = kMillisecond;  // 1000/s against w / L = 400/s
    const PacedRun run = paced_run(kCount, kInterval, kMillisecond);
    ASSERT_EQ(run.sent_at.size(), kCount);
    EXPECT_GT(run.stalls, 0u);
    EXPECT_EQ(run.retx, 0u);
    for (Seq i = 1; i < kW; ++i) {
        EXPECT_EQ(run.sent_at[i] - run.sent_at[i - 1], kInterval) << "message " << i;
    }
    for (Seq i = 0; i + kW < kCount; ++i) {
        EXPECT_EQ(run.sent_at[i + kW], run.sent_at[i] + kL) << "message " << i + kW;
    }
}

}  // namespace
}  // namespace bacp::net
