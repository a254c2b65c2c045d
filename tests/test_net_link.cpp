// Link layer over the net runtime (tier 1).  NetReliableLink and
// NetStreamMux run over InprocTransport + ManualClock, so every test is
// a pure function of its seed: arbitrary byte payloads in, in-order
// exactly-once delivery out, under seeded loss/dup/reorder impairment,
// with both directions sharing one socket and (by default) acks
// piggybacked on reverse DATA.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "link/net_link.hpp"
#include "net/clock.hpp"
#include "net/impairer.hpp"

namespace bacp::link {
namespace {

std::vector<std::uint8_t> payload_for(const char* tag, Seq i) {
    std::string s = std::string(tag) + "#" + std::to_string(i);
    // Vary the length so frames are not all the same size.
    s.append(static_cast<std::size_t>(i % 7), '.');
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Polls both ends until both report done, advancing the manual clock to
/// the earliest timer deadline whenever a pass finds no work.  Returns
/// false if the pair wedges (no work, no timers) or exceeds the step
/// budget.
template <typename A, typename B>
bool drive(net::ManualClock& clock, net::TimerWheel& wheel_a, net::TimerWheel& wheel_b, A& a,
           B& b) {
    const net::TimerWheel* const wheels[] = {&wheel_a, &wheel_b};
    for (int steps = 0; steps < 200000; ++steps) {
        if (a.done() && b.done()) return true;
        if (a.poll() + b.poll() > 0) continue;
        const std::optional<SimTime> next = net::earliest_deadline(wheels);
        if (!next) return false;  // wedged
        clock.advance_to(*next);
    }
    return false;
}

TEST(NetReliableLink, DuplexBytesBothDirectionsLossless) {
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();

    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 8;
    cfg.count = 20;
    cfg.rx_count = 20;
    cfg.link_lifetime = 5 * kMillisecond;
    NetReliableLink a(cfg, wheel_a, *ta);
    NetReliableLink b(cfg, wheel_b, *tb);

    std::vector<std::vector<std::uint8_t>> at_b, at_a;
    a.set_on_deliver([&](std::span<const std::uint8_t> p) {
        at_a.emplace_back(p.begin(), p.end());
    });
    b.set_on_deliver([&](std::span<const std::uint8_t> p) {
        at_b.emplace_back(p.begin(), p.end());
    });
    a.start();
    b.start();
    // Queue half up front, the rest mid-flight (app-gated release path).
    for (Seq i = 0; i < 10; ++i) a.send(payload_for("a", i));
    for (Seq i = 0; i < 20; ++i) b.send(payload_for("b", i));
    for (int k = 0; k < 50; ++k) {
        a.poll();
        b.poll();
    }
    for (Seq i = 10; i < 20; ++i) a.send(payload_for("a", i));

    ASSERT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
    ASSERT_EQ(at_b.size(), 20u);
    ASSERT_EQ(at_a.size(), 20u);
    for (Seq i = 0; i < 20; ++i) {
        EXPECT_EQ(at_b[i], payload_for("a", i)) << "a->b payload " << i;
        EXPECT_EQ(at_a[i], payload_for("b", i)) << "b->a payload " << i;
    }
}

TEST(NetReliableLink, SurvivesImpairmentAndPiggybacks) {
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();
    const net::ImpairSpec spec = net::ImpairSpec::lossy(0.1);
    net::Impairer imp_a(*ta, wheel_a, spec, 71);
    net::Impairer imp_b(*tb, wheel_b, spec, 72);

    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 8;
    cfg.count = 40;
    cfg.rx_count = 40;
    cfg.link_lifetime = 5 * kMillisecond;
    NetReliableLink a(cfg, wheel_a, imp_a);
    NetReliableLink b(cfg, wheel_b, imp_b);

    std::vector<std::vector<std::uint8_t>> at_b, at_a;
    a.set_on_deliver([&](std::span<const std::uint8_t> p) {
        at_a.emplace_back(p.begin(), p.end());
    });
    b.set_on_deliver([&](std::span<const std::uint8_t> p) {
        at_b.emplace_back(p.begin(), p.end());
    });
    a.start();
    b.start();
    for (Seq i = 0; i < 40; ++i) {
        a.send(payload_for("fwd", i));
        b.send(payload_for("rev", i));
    }

    ASSERT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
    ASSERT_EQ(at_b.size(), 40u);
    ASSERT_EQ(at_a.size(), 40u);
    for (Seq i = 0; i < 40; ++i) {
        EXPECT_EQ(at_b[i], payload_for("fwd", i));
        EXPECT_EQ(at_a[i], payload_for("rev", i));
    }
    // Bidirectional closed-loop traffic with deferral on: at least one
    // ack must have ridden a reverse DATA.
    EXPECT_GT(a.endpoint().piggybacked() + b.endpoint().piggybacked(), 0u);
}

TEST(NetReliableLink, ReverseDataTakesTheBlockTheAckPolicyHolds) {
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();

    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 4;
    cfg.count = 1;
    cfg.rx_count = 1;
    cfg.link_lifetime = 1 * kMillisecond;
    cfg.ack_policy = runtime::AckPolicy::delayed(2 * kMillisecond);
    NetReliableLink a(cfg, wheel_a, *ta);
    NetReliableLink b(cfg, wheel_b, *tb);
    a.start();
    b.start();

    a.send(payload_for("a", 0));
    b.poll();
    ASSERT_EQ(b.delivered_count(), 1u);
    // B's block for a#0 is held by its ack policy; nothing egressed yet.
    EXPECT_EQ(b.endpoint().piggybacked() + b.endpoint().standalone_acks(), 0u);

    // Reverse DATA well inside the 2 ms hold carries the held block.
    clock.advance(500 * kMicrosecond);
    b.poll();
    b.send(payload_for("b", 0));
    EXPECT_EQ(b.endpoint().piggybacked(), 1u);
    EXPECT_EQ(b.endpoint().standalone_acks(), 0u);
    a.poll();
    EXPECT_TRUE(a.endpoint().tx_driver().all_sent_and_acked());

    ASSERT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
    EXPECT_EQ(a.delivered_count(), 1u);
}

TEST(NetReliableLink, SendStoreHoldsAtMostWindowPlusQueue) {
    // A long one-way transfer: the sending side must drop every payload
    // the peer has acknowledged, so what it holds is bounded by the
    // window plus the application's queue -- never by how many
    // payloads it has sent.
    constexpr Seq kCount = 100'000;
    constexpr Seq kQueue = 16;  // payloads the application keeps queued
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();

    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 8;
    cfg.count = kCount;
    cfg.link_lifetime = 1 * kMillisecond;
    cfg.payload_size = 64;
    NetReliableLink a(cfg, wheel_a, *ta);
    cfg.count = 0;
    cfg.rx_count = kCount;
    NetReliableLink b(cfg, wheel_b, *tb);
    Seq in_order = 0;
    b.set_on_deliver([&](std::span<const std::uint8_t> p) {
        if (p.size() == 8 && p[0] == static_cast<std::uint8_t>(in_order)) ++in_order;
    });
    a.start();
    b.start();

    const auto& sender = a.endpoint().tx_driver();
    std::size_t worst_excess = 0;  // max over the run of held - (w + queued)
    const net::TimerWheel* const wheels[] = {&wheel_a, &wheel_b};
    Seq next = 0;
    while (!(a.done() && b.done())) {
        while (next < kCount && sender.released() - sender.sent_new() < kQueue) {
            a.send(std::vector<std::uint8_t>(8, static_cast<std::uint8_t>(next++)));
            const std::size_t bound =
                static_cast<std::size_t>(cfg.w + sender.released() - sender.sent_new());
            if (a.payloads_held() > bound) {
                worst_excess = std::max(worst_excess, a.payloads_held() - bound);
            }
        }
        if (a.poll() + b.poll() > 0) continue;
        const std::optional<SimTime> due = net::earliest_deadline(wheels);
        ASSERT_TRUE(due) << "wedged after " << in_order << " deliveries";
        clock.advance_to(*due);
    }
    EXPECT_EQ(in_order, kCount);
    EXPECT_EQ(a.sent_count(), kCount);
    EXPECT_EQ(worst_excess, 0u);
    EXPECT_LE(a.payloads_held(), cfg.w);
}

TEST(NetStreamMux, IndependentStreamsOverOneSocket) {
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();
    const net::ImpairSpec spec = net::ImpairSpec::lossy(0.05);
    net::Impairer imp_a(*ta, wheel_a, spec, 81);
    net::Impairer imp_b(*tb, wheel_b, spec, 82);

    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 4;
    cfg.count = 12;
    cfg.rx_count = 12;
    cfg.link_lifetime = 5 * kMillisecond;
    NetStreamMux a(3, cfg, wheel_a, imp_a);
    NetStreamMux b(3, cfg, wheel_b, imp_b);

    std::vector<std::vector<std::vector<std::uint8_t>>> at_b(3), at_a(3);
    a.set_on_deliver([&](Seq stream, std::span<const std::uint8_t> p) {
        at_a[stream].emplace_back(p.begin(), p.end());
    });
    b.set_on_deliver([&](Seq stream, std::span<const std::uint8_t> p) {
        at_b[stream].emplace_back(p.begin(), p.end());
    });
    a.start();
    b.start();
    // Round-robin across streams, both directions, so frames interleave
    // on the shared socket.
    for (Seq i = 0; i < 12; ++i) {
        for (Seq s = 0; s < 3; ++s) {
            a.send(s, payload_for(("as" + std::to_string(s)).c_str(), i));
            b.send(s, payload_for(("bs" + std::to_string(s)).c_str(), i));
        }
    }

    ASSERT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
    for (Seq s = 0; s < 3; ++s) {
        ASSERT_EQ(at_b[s].size(), 12u) << "stream " << s;
        ASSERT_EQ(at_a[s].size(), 12u) << "stream " << s;
        for (Seq i = 0; i < 12; ++i) {
            EXPECT_EQ(at_b[s][i], payload_for(("as" + std::to_string(s)).c_str(), i));
            EXPECT_EQ(at_a[s][i], payload_for(("bs" + std::to_string(s)).c_str(), i));
        }
    }
    EXPECT_EQ(a.dropped_frames(), 0u);
    EXPECT_EQ(b.dropped_frames(), 0u);
}

TEST(NetStreamMux, DeterministicFromSeed) {
    auto run = [](std::uint64_t seed) {
        net::ManualClock clock;
        net::TimerWheel wheel_a(clock);
        net::TimerWheel wheel_b(clock);
        auto [ta, tb] = net::InprocTransport::make_pair();
        const net::ImpairSpec spec = net::ImpairSpec::lossy(0.08);
        net::Impairer imp_a(*ta, wheel_a, spec, seed);
        net::Impairer imp_b(*tb, wheel_b, spec, seed + 1);
        net::NetConfig cfg;
        cfg.piggyback = true;
        cfg.w = 4;
        cfg.count = 10;
        cfg.rx_count = 10;
        cfg.link_lifetime = 5 * kMillisecond;
        NetStreamMux a(2, cfg, wheel_a, imp_a);
        NetStreamMux b(2, cfg, wheel_b, imp_b);
        std::uint64_t trace = 0;
        b.set_on_deliver([&](Seq stream, std::span<const std::uint8_t> p) {
            trace = trace * 1315423911u + stream * 257 + p.size();
        });
        a.set_on_deliver([&](Seq, std::span<const std::uint8_t>) {});
        a.start();
        b.start();
        for (Seq i = 0; i < 10; ++i) {
            for (Seq s = 0; s < 2; ++s) {
                a.send(s, payload_for("d", i));
                b.send(s, payload_for("e", i));
            }
        }
        EXPECT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
        return trace;
    };
    EXPECT_EQ(run(5), run(5));
    EXPECT_NE(run(5), run(6));
}


// Golden replay of the net mux: three duplex streams over one impaired
// InprocTransport pair, ManualClock time, fixed seeds.  Pins every
// delivery instant per stream and direction, the datagrams each socket
// end sent and the retransmissions, so any change to the mux's
// configuration, its receive loop or the shared endpoint's decisions
// shows up here.
TEST(NetStreamMux, GoldenReplayThreeStreams) {
    constexpr Seq kStreams = 3;
    constexpr Seq kPerStream = 16;
    net::ManualClock clock;
    net::TimerWheel wheel_a(clock);
    net::TimerWheel wheel_b(clock);
    auto [ta, tb] = net::InprocTransport::make_pair();
    const net::ImpairSpec spec = net::ImpairSpec::lossy(0.05);
    net::Impairer imp_a(*ta, wheel_a, spec, 41);
    net::Impairer imp_b(*tb, wheel_b, spec, 42);
    net::NetConfig cfg;
    cfg.piggyback = true;
    cfg.w = 4;
    cfg.count = kPerStream;
    cfg.rx_count = kPerStream;
    cfg.link_lifetime = 5 * kMillisecond;
    cfg.seed = 7;
    NetStreamMux a(kStreams, cfg, wheel_a, imp_a);
    NetStreamMux b(kStreams, cfg, wheel_b, imp_b);
    std::vector<std::vector<SimTime>> at_a(kStreams), at_b(kStreams);
    a.set_on_deliver([&](Seq s, std::span<const std::uint8_t>) { at_a[s].push_back(clock.now()); });
    b.set_on_deliver([&](Seq s, std::span<const std::uint8_t>) { at_b[s].push_back(clock.now()); });
    a.start();
    b.start();
    for (Seq i = 0; i < kPerStream; ++i) {
        for (Seq s = 0; s < kStreams; ++s) {
            a.send(s, payload_for("ga", i));
            b.send(s, payload_for("gb", i));
        }
    }
    ASSERT_TRUE(drive(clock, wheel_a, wheel_b, a, b));
    std::uint64_t retx = 0;
    for (Seq s = 0; s < kStreams; ++s) {
        retx += a.link(s).endpoint().tx_metrics().data_retx;
        retx += b.link(s).endpoint().tx_metrics().data_retx;
    }
    EXPECT_EQ(ta->stats().datagrams_sent, 73u);
    EXPECT_EQ(tb->stats().datagrams_sent, 79u);
    EXPECT_EQ(retx, 8u);
    const std::vector<std::vector<SimTime>> golden_b = {
        {689859, 689859, 689859, 972341, 5943339, 5998421, 5998421, 5998421, 10622086, 10788169,
         10788169, 10788169, 15398785, 15398785, 15398785, 15803662},
        {798061, 798061, 798061, 798061, 5452216, 5822309, 5873268, 5873268, 10505974, 10897409,
         23843604, 23843604, 23843604, 23843604, 28295495, 28295495},
        {355084, 405005, 760046, 770003, 5473473, 5473473, 5473473, 5473473, 10668238, 10668238,
         10668238, 10668238, 28794195, 29301537, 31419400, 31660550},
    };
    const std::vector<std::vector<SimTime>> golden_a = {
        {744035, 768920, 768920, 768920, 5982407, 5982407, 5982407, 5982407, 10317829, 10317829,
         10992789, 23899627, 23899627, 23899627, 23899627, 28762925},
        {775407, 775407, 775407, 842860, 5831727, 5831727, 5839349, 18771948, 18771948, 18771948,
         18771948, 23776562, 23776562, 23776562, 23776562, 28273258},
        {745962, 745962, 851363, 851363, 5271065, 5704653, 5704653, 5704653, 10694698, 10915593,
         10915593, 10915593, 15983745, 15983745, 15983745, 15983745},
    };
    EXPECT_EQ(at_b, golden_b);
    EXPECT_EQ(at_a, golden_a);
}

}  // namespace
}  // namespace bacp::link
