// Step time in the real-time runtime: a TimerWheel reads its clock once
// per step (one datagram handed to an endpoint, one fire_due() pass, one
// application call) and every decision of the step shares that reading.
//
// Two wrapped clocks make the reads visible.  CountingClock counts the
// reads a run makes over a ManualClock, so a Server and a ClientFleet on
// InprocHub can be held to a per-message read budget.  TickingClock moves
// 1 ns on every read, so two decisions that read the clock separately get
// different stamps -- and decisions of one step must not.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ba/engine_core.hpp"
#include "counting_clock.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

/// A clock that moves 1 ns on every read: any two separate reads differ.
class TickingClock final : public Clock {
public:
    SimTime now() const override { return ++now_; }
    void advance(SimTime delta) { now_ += delta; }

private:
    mutable SimTime now_ = 0;
};

// ---- clock reads per message at the fleet shape -------------------------

constexpr std::size_t kSessions = 64;
constexpr Seq kMessages = 32;

NetConfig fleet_shape() {
    NetConfig cfg;
    cfg.w = 2;
    cfg.payload_size = 32;
    cfg.max_datagram = 32 + 128;
    cfg.link_lifetime = kMillisecond;
    cfg.timeout = kSecond;
    cfg.seed = 7;
    return cfg;
}

// Measured at this shape: a wheel that read the clock at every decision
// made 10.57 reads per acked message; one reading per step made 2.07 --
// one per DATA datagram the server demuxes, one per ack the fleet
// demuxes, and a few per poll.  With one block ack per session per
// arena the fleet demuxes half as many acks: 1.59.
constexpr double kReadsPerMessageBound = 1.75;

TEST(StepClock, FleetAndServerReadTheClockAboutOncePerDatagram) {
    ManualClock manual;
    CountingClock clock(manual);
    InprocHub hub(4096, 8192);
    ServerConfig scfg;
    scfg.session = fleet_shape();
    scfg.session.count = 0;
    scfg.session.rx_count = kMessages;
    scfg.recv_batch = 64;
    scfg.idle_timeout = 600 * kSecond;
    Server<Core> server(scfg, {}, clock, {&hub.server()});

    std::vector<std::unique_ptr<Transport>> sockets;
    std::vector<Transport*> raw;
    for (int i = 0; i < 4; ++i) {
        sockets.push_back(hub.make_client());
        raw.push_back(sockets.back().get());
    }
    FleetConfig fcfg;
    fcfg.session = fleet_shape();
    fcfg.session.count = kMessages;
    fcfg.sessions = kSessions;
    fcfg.recv_batch = 64;
    ClientFleet<Core> fleet(fcfg, {}, clock, raw);

    const std::uint64_t reads0 = clock.reads();
    const TimerWheel* const wheels[] = {&fleet.wheel(), &server.shard_wheel(0)};
    while (!fleet.done()) {
        while (fleet.poll() + server.poll() > 0) {
        }
        if (fleet.done()) break;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        if (!next || *next > 60 * kSecond) break;
        manual.advance_to(*next);
    }
    ASSERT_TRUE(fleet.done());
    const std::uint64_t acked = fleet.ack_latency().count();
    ASSERT_EQ(acked, kSessions * kMessages);
    const double per_message =
        static_cast<double>(clock.reads() - reads0) / static_cast<double>(acked);
    std::printf("clock reads per acked message %.2f\n", per_message);
    EXPECT_LE(per_message, kReadsPerMessageBound);
    // Every datagram is one step, so each delivered DATA and each ack
    // costs a read at least.
    EXPECT_GE(per_message, 1.0);
}

// ---- one stamp per step --------------------------------------------------

TEST(StepClock, WheelOutsideAStepReadsTheClockEveryTime) {
    TickingClock clock;
    TimerWheel wheel(clock);
    const SimTime a = wheel.now();
    const SimTime b = wheel.now();
    EXPECT_LT(a, b);
    SimTime inside = 0;
    {
        const auto step = wheel.step();
        inside = wheel.now();
        EXPECT_EQ(wheel.now(), inside);
        {
            const auto nested = wheel.step();  // reuses the outer reading
            EXPECT_EQ(wheel.now(), inside);
        }
        EXPECT_EQ(wheel.now(), inside);
        wheel.schedule_after(10, [] {});
        EXPECT_EQ(wheel.next_deadline(), inside + 10);
    }
    EXPECT_GT(inside, b);
    const SimTime after = wheel.now();
    EXPECT_GT(after, inside);
    EXPECT_GT(wheel.now(), after);
}

TEST(StepClock, FireDuePassIsOneStep) {
    TickingClock clock;
    TimerWheel wheel(clock);
    std::vector<SimTime> seen;
    wheel.schedule_after(0, [&] {
        seen.push_back(wheel.now());
        seen.push_back(wheel.now());
    });
    wheel.schedule_after(0, [&] { seen.push_back(wheel.now()); });
    EXPECT_EQ(wheel.fire_due(), 2u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[1], seen[2]);
}

TEST(StepClock, DataReleasedByOneAckShareOneStamp) {
    TickingClock clock;
    TimerWheel wheel(clock);
    auto [near, far] = InprocTransport::make_pair();
    NetConfig cfg;
    cfg.w = 2;
    cfg.count = 4;
    cfg.payload_size = 16;
    cfg.link_lifetime = kMicrosecond;
    cfg.timeout = kSecond;
    NetEndpoint<Core> sender(cfg, {}, wheel, *near);

    // start() is one step: the first window goes out at one instant.
    sender.start();
    const auto& tx = sender.tx_driver();
    ASSERT_EQ(tx.sent_new(), 2);
    EXPECT_EQ(tx.first_sent_at(0), tx.first_sent_at(1));

    RecvBatch sink(8);
    ASSERT_EQ(far->recv_batch(sink), 2u);

    // One block ack for both, after the first copies have aged out of
    // the send horizon: the datagram is one step, and the two DATA it
    // releases are stamped together.
    clock.advance(kMillisecond);
    const std::vector<std::uint8_t> ack = wire::encode_ack(0, 1);
    const std::span<const std::uint8_t> one[] = {ack};
    ASSERT_EQ(far->send_batch(one), 1u);
    EXPECT_EQ(sender.poll(), 1u);
    ASSERT_EQ(tx.sent_new(), 4);
    EXPECT_EQ(tx.ack_cursor(), 2);
    EXPECT_NE(tx.first_sent_at(2), runtime::kNever);
    EXPECT_EQ(tx.first_sent_at(2), tx.first_sent_at(3));
    EXPECT_GT(tx.first_sent_at(2), tx.first_sent_at(1));
}

}  // namespace
}  // namespace bacp::net
