// Kernel-offload ladder tests (tier 1): capability probing, the
// UDP_SEGMENT/UDP_GRO tier, and every fallback seam below it.  Tests that need a kernel feature
// skip (never fail) when the probe says it is absent, so the suite is
// green on any kernel; the fallback tests run everywhere by
// construction.  All traffic is loopback UDP: after a send_batch
// returns, every surviving datagram is already in the receiver's socket
// queue, so drains need no timing assumptions.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/clock.hpp"
#include "net/impairer.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"

namespace bacp::net {
namespace {

using namespace bacp::literals;

std::vector<std::uint8_t> numbered_datagram(std::size_t i, std::size_t size) {
    std::vector<std::uint8_t> d(size);
    for (std::size_t k = 0; k < size; ++k) {
        d[k] = static_cast<std::uint8_t>(i * 31 + k);
    }
    return d;
}

/// Batch-of-one send: the smallest legal send_batch.
bool send_one(Transport& t, std::span<const std::uint8_t> datagram) {
    const std::span<const std::uint8_t> one[] = {datagram};
    return t.send_batch(one) == 1;
}

struct Corpus {
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::span<const std::uint8_t>> spans;

    void add(std::size_t i, std::size_t size) {
        datagrams.push_back(numbered_datagram(i, size));
    }
    std::span<const std::span<const std::uint8_t>> view() {
        spans.clear();
        for (const auto& d : datagrams) spans.emplace_back(d);
        return spans;
    }
};

/// Receives until \p expected datagrams have arrived (or a wait times
/// out), appending owned copies in arrival order.
std::vector<std::vector<std::uint8_t>> drain_all(Transport& t, std::size_t expected,
                                                 std::size_t arena_capacity = 16) {
    std::vector<std::vector<std::uint8_t>> received;
    RecvBatch batch(arena_capacity, /*max_datagram=*/2048);
    const int fds[] = {t.fd()};
    int idle_waits = 0;
    while (received.size() < expected && idle_waits < 20) {
        const std::size_t n = t.recv_batch(batch);
        for (std::size_t i = 0; i < n; ++i) {
            received.emplace_back(batch[i].begin(), batch[i].end());
        }
        if (n == 0) {
            wait_readable(fds, 100 * kMillisecond);
            ++idle_waits;
        }
    }
    return received;
}

// ------------------------------------------------------ probe/resolve --

TEST(Offload, ProbeIsStableAndResolveClampsToCaps) {
    const OffloadCaps& caps = offload_caps();
    EXPECT_EQ(&caps, &offload_caps());  // cached, one probe per process
    EXPECT_EQ(resolve_offload(OffloadMode::Mmsg), OffloadMode::Mmsg);
    const OffloadMode best = resolve_offload(OffloadMode::Auto);
    EXPECT_NE(best, OffloadMode::Auto);
    // Auto takes GSO+GRO wherever the kernel has either (the measured
    // bulk-goodput winner; see BENCH_e21).
    EXPECT_EQ(best, caps.gso || caps.gro ? OffloadMode::Gso : OffloadMode::Mmsg);
    // An explicit request never resolves above what the kernel has.
    if (!caps.gso && !caps.gro) {
        EXPECT_EQ(resolve_offload(OffloadMode::Gso), OffloadMode::Mmsg);
    }
}

TEST(Offload, ModeNamesParseBack) {
    for (const OffloadMode m : {OffloadMode::Mmsg, OffloadMode::Gso, OffloadMode::Auto}) {
        const auto parsed = parse_offload_mode(offload_mode_name(m));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, m);
    }
    // No io_uring tier: `udp_transfer --offload uring` is a usage error.
    EXPECT_FALSE(parse_offload_mode("uring").has_value());
    EXPECT_FALSE(parse_offload_mode("tcp").has_value());
    EXPECT_FALSE(parse_offload_mode("").has_value());
}

// ------------------------------------------------------------ gso/gro --

TEST(OffloadGso, CoalescedBatchRoundTripsWithBoundariesIntact) {
    if (resolve_offload(OffloadMode::Gso) != OffloadMode::Gso) {
        GTEST_SKIP() << "kernel lacks UDP GSO/GRO";
    }
    auto [a, b] = UdpTransport::make_pair();
    a->enable_offload(OffloadMode::Gso);
    b->enable_offload(OffloadMode::Gso);
    EXPECT_EQ(a->offload_tier(), OffloadMode::Gso);

    // One equal-stride run with a short tail: exactly the shape one
    // UDP_SEGMENT super-buffer carries (the tail closes it).
    Corpus c;
    for (std::size_t i = 0; i < 5; ++i) c.add(i, 512);
    c.add(5, 200);
    ASSERT_EQ(a->send_batch(c.view()), 6u);
    if (offload_caps().gso) {
        EXPECT_GE(a->stats().gso_sends, 1u);
        EXPECT_EQ(a->stats().gso_segments, 6u);
        EXPECT_EQ(a->stats().syscalls_sent, 1u);
    }

    const auto received = drain_all(*b, 6);
    ASSERT_EQ(received.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(received[i], c.datagrams[i]) << "datagram " << i;
    }
    EXPECT_EQ(b->stats().datagrams_received, 6u);
    EXPECT_EQ(b->stats().bytes_received, 5u * 512u + 200u);
}

TEST(OffloadGso, StagingCarriesOverWhenArenaIsSmallerThanBurst) {
    if (resolve_offload(OffloadMode::Gso) != OffloadMode::Gso || !offload_caps().gro) {
        GTEST_SKIP() << "kernel lacks UDP GSO/GRO";
    }
    auto [a, b] = UdpTransport::make_pair();
    a->enable_offload(OffloadMode::Gso);
    b->enable_offload(OffloadMode::Gso);

    // 48 x 512 fits one coalesced GRO buffer; the capacity-16 arena
    // needs three drains.  Only the first may cross the syscall
    // boundary -- the carried-over staging feeds the rest for free.
    constexpr std::size_t kN = 48;
    Corpus c;
    for (std::size_t i = 0; i < kN; ++i) c.add(i, 512);
    ASSERT_EQ(a->send_batch(c.view()), kN);

    RecvBatch batch(16, /*max_datagram=*/2048);
    std::vector<std::vector<std::uint8_t>> received;
    const int fds[] = {b->fd()};
    ASSERT_TRUE(wait_readable(fds, 2 * kSecond));
    ASSERT_EQ(b->recv_batch(batch), 16u);
    const std::uint64_t syscalls_after_first = b->stats().syscalls_received;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        received.emplace_back(batch[i].begin(), batch[i].end());
    }
    while (received.size() < kN) {
        const std::size_t n = b->recv_batch(batch);
        ASSERT_GT(n, 0u) << "burst incomplete after " << received.size();
        for (std::size_t i = 0; i < n; ++i) {
            received.emplace_back(batch[i].begin(), batch[i].end());
        }
    }
    // Everything after the first drain came out of staging: same arena,
    // zero extra syscalls, byte-exact boundaries.
    EXPECT_EQ(b->stats().syscalls_received, syscalls_after_first);
    EXPECT_GE(b->stats().gro_segments, kN);
    ASSERT_EQ(received.size(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(received[i], c.datagrams[i]) << "datagram " << i;
    }
}

TEST(OffloadGso, RejectedSendFallsBackToPlainWithoutLosingDatagrams) {
    if (resolve_offload(OffloadMode::Gso) != OffloadMode::Gso || !offload_caps().gso) {
        GTEST_SKIP() << "kernel lacks UDP GSO";
    }
    auto [a, b] = UdpTransport::make_pair();
    a->enable_offload(OffloadMode::Gso);
    a->fail_next_gso_send_for_test();

    Corpus c;
    for (std::size_t i = 0; i < 8; ++i) c.add(i, 256);
    // The injected EINVAL demotes the socket to plain sends mid-call;
    // every datagram must still go out (through the resend path).
    ASSERT_EQ(a->send_batch(c.view()), 8u);
    EXPECT_EQ(a->stats().send_drops, 0u);
    EXPECT_EQ(a->stats().gso_sends, 0u);  // the super-buffer never left

    const auto received = drain_all(*b, 8);
    ASSERT_EQ(received.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(received[i], c.datagrams[i]);

    // The demotion is permanent: the next batch is plain too.
    ASSERT_EQ(a->send_batch(c.view()), 8u);
    EXPECT_EQ(a->stats().gso_sends, 0u);
    EXPECT_EQ(drain_all(*b, 8).size(), 8u);
}

TEST(OffloadGso, AddressedSendCoalescesPerPeer) {
    if (resolve_offload(OffloadMode::Gso) != OffloadMode::Gso || !offload_caps().gso) {
        GTEST_SKIP() << "kernel lacks UDP GSO";
    }
    // One unconnected sender, two receivers: runs must break at peer
    // boundaries or datagrams would land on the wrong socket.
    UdpTransport sender;
    sender.enable_offload(OffloadMode::Gso);
    UdpTransport rx1;
    UdpTransport rx2;
    const PeerAddr p1{/*ip=*/0x7f000001, rx1.local_port()};
    const PeerAddr p2{/*ip=*/0x7f000001, rx2.local_port()};

    Corpus c;
    for (std::size_t i = 0; i < 8; ++i) c.add(i, 300);
    const std::vector<PeerAddr> peers = {p1, p1, p1, p2, p2, p2, p2, p1};
    ASSERT_EQ(sender.send_batch_to(c.view(), peers), 8u);
    EXPECT_EQ(sender.stats().syscalls_sent, 1u);  // one sendmmsg, mixed entries

    const auto at1 = drain_all(rx1, 4);
    const auto at2 = drain_all(rx2, 4);
    ASSERT_EQ(at1.size(), 4u);
    ASSERT_EQ(at2.size(), 4u);
    EXPECT_EQ(at1[0], c.datagrams[0]);
    EXPECT_EQ(at1[3], c.datagrams[7]);
    EXPECT_EQ(at2[0], c.datagrams[3]);
}

// ---------------------------------------------------------- fallbacks --

TEST(OffloadFallback, EveryRequestedTierRoundTripsOnAnyKernel) {
    // The ladder's contract: request anything, traffic still flows.
    // On kernels without the feature this exercises the resolve-time
    // clamp; with it, the real tier.  fd() stays the descriptor it was
    // before any traffic, which is what lets event loops read it once.
    for (const OffloadMode mode : {OffloadMode::Mmsg, OffloadMode::Gso, OffloadMode::Auto}) {
        auto [a, b] = UdpTransport::make_pair();
        a->enable_offload(mode);
        b->enable_offload(mode);
        const int fd_before = b->fd();
        Corpus c;
        for (std::size_t i = 0; i < 12; ++i) c.add(i, 400);
        ASSERT_EQ(a->send_batch(c.view()), 12u) << offload_mode_name(mode);
        const auto received = drain_all(*b, 12);
        ASSERT_EQ(received.size(), 12u) << offload_mode_name(mode);
        for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(received[i], c.datagrams[i]);
        EXPECT_EQ(b->fd(), fd_before) << offload_mode_name(mode);
        EXPECT_NE(b->offload_tier(), OffloadMode::Auto);
    }
}

TEST(OffloadFallback, ImpairerDecidesPerDatagramBeforeCoalescing) {
    // The impairment boundary sits above the transport, so its per-
    // datagram decision stream must be identical whether the transport
    // below coalesces (GSO) or not -- and identical between batch and
    // one-at-a-time sends.  Loss only: decisions are synchronous, and the
    // survivor set is a pure function of the seed.
    auto survivors = [](bool batched, OffloadMode mode) {
        SteadyClock clock;
        TimerWheel wheel(clock);
        auto [a, b] = UdpTransport::make_pair();
        a->enable_offload(mode);
        b->enable_offload(mode);
        ImpairSpec spec;
        spec.loss = 0.3;
        Impairer impaired(*a, wheel, spec, /*seed=*/2024);
        Corpus c;
        for (std::size_t i = 0; i < 64; ++i) c.add(i, 512);
        if (batched) {
            impaired.send_batch(c.view());
        } else {
            for (const auto& d : c.datagrams) send_one(impaired, d);
        }
        const std::uint64_t offered = impaired.impair_stats().offered;
        const std::uint64_t dropped = impaired.impair_stats().dropped;
        EXPECT_EQ(offered, 64u);
        auto received = drain_all(*b, 64 - dropped);
        return std::make_pair(std::move(received), dropped);
    };
    const auto [batch_gso, dropped_batch] = survivors(true, OffloadMode::Gso);
    const auto [single_gso, dropped_single] = survivors(false, OffloadMode::Gso);
    const auto [batch_mmsg, dropped_mmsg] = survivors(true, OffloadMode::Mmsg);
    EXPECT_EQ(dropped_batch, dropped_single);
    EXPECT_EQ(dropped_batch, dropped_mmsg);
    EXPECT_GT(dropped_batch, 0u);
    EXPECT_EQ(batch_gso, single_gso);   // same survivors, same order
    EXPECT_EQ(batch_gso, batch_mmsg);   // tier changes nothing above it
}

// ----------------------------------------------------- counters/stats --

TEST(OffloadStats, TimerWheelBatchingReachesMetricsFields) {
    ManualClock clock;
    TimerWheel wheel(clock);
    int fired = 0;
    for (int i = 0; i < 5; ++i) {
        wheel.schedule_after(i < 3 ? kMillisecond : 2 * kMillisecond, [&] { ++fired; });
    }
    clock.advance(kMillisecond);
    EXPECT_EQ(wheel.fire_due(), 3u);
    wheel.fire_due();  // nothing due: not a batch
    clock.advance(kMillisecond);
    EXPECT_EQ(wheel.fire_due(), 2u);
    EXPECT_EQ(wheel.fire_batches(), 2u);
    EXPECT_EQ(wheel.timers_fired(), 5u);

    Metrics m;
    wheel.add_stats(m);
    bool saw_batches = false;
    bool saw_fired = false;
    for (const auto& f : m.fields()) {
        if (std::string_view(f.name) == "timer_fire_batches") {
            saw_batches = true;
            EXPECT_EQ(f.value, 2u);
        }
        if (std::string_view(f.name) == "timers_fired") {
            saw_fired = true;
            EXPECT_EQ(f.value, 5u);
        }
    }
    EXPECT_TRUE(saw_batches);
    EXPECT_TRUE(saw_fired);
}

TEST(OffloadStats, ServerStatsCarryTheMaxShardTier) {
    ServerStats a;
    a.offload_tier = static_cast<std::uint64_t>(OffloadMode::Gso);
    ServerStats b;
    b.offload_tier = static_cast<std::uint64_t>(OffloadMode::Mmsg);
    b.sessions_opened = 3;
    a += b;
    EXPECT_EQ(a.offload_tier, static_cast<std::uint64_t>(OffloadMode::Gso));
    EXPECT_EQ(a.sessions_opened, 3u);
    bool saw = false;
    for (const auto& f : a.fields()) {
        if (std::string_view(f.name) == "offload_tier") {
            saw = true;
            EXPECT_EQ(f.value, 1u);
        }
    }
    EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace bacp::net
