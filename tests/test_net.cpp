// Real-time runtime tests (tier 1).  Everything that can be checked
// deterministically runs over InprocTransport + ManualClock, where a run
// is a pure function of its seed; one short, time-bounded UDP loopback
// soak exercises the actual socket path and asserts the delivery
// guarantee the CRC + protocol stack provides: accepted payloads are
// complete, in order, and uncorrupted, regardless of impairment.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/net_session.hpp"
#include "wire/crc32.hpp"

namespace bacp::net {
namespace {

using namespace bacp::literals;

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) { return list; }

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// Batch-of-one send: the smallest legal send_batch.  True when the
/// transport accepted the datagram.
bool send_one(Transport& t, std::span<const std::uint8_t> datagram) {
    const std::span<const std::uint8_t> one[] = {datagram};
    return t.send_batch(one) == 1;
}

/// Single-datagram receive through a capacity-1 arena, returning an
/// owned copy for easy comparison.
std::optional<std::vector<std::uint8_t>> recv_copy(Transport& t) {
    RecvBatch batch(1);
    if (t.recv_batch(batch) == 0) return std::nullopt;
    return to_vec(batch[0]);
}

// -------------------------------------------------------- transports --

TEST(InprocTransport, RoundTripBothDirections) {
    auto [a, b] = InprocTransport::make_pair();
    EXPECT_FALSE(recv_copy(*a).has_value());
    EXPECT_TRUE(send_one(*a, bytes({1, 2, 3})));
    EXPECT_TRUE(send_one(*b, bytes({9})));
    const auto at_b = recv_copy(*b);
    const auto at_a = recv_copy(*a);
    ASSERT_TRUE(at_b.has_value());
    ASSERT_TRUE(at_a.has_value());
    EXPECT_EQ(*at_b, bytes({1, 2, 3}));
    EXPECT_EQ(*at_a, bytes({9}));
    EXPECT_FALSE(recv_copy(*b).has_value());
    EXPECT_EQ(a->stats().datagrams_sent, 1u);
    EXPECT_EQ(b->stats().bytes_received, 3u);
}

TEST(InprocTransport, TailDropsWhenFull) {
    auto [a, b] = InprocTransport::make_pair(/*capacity=*/2);
    EXPECT_TRUE(send_one(*a, bytes({1})));
    EXPECT_TRUE(send_one(*a, bytes({2})));
    EXPECT_FALSE(send_one(*a, bytes({3})));
    EXPECT_EQ(a->stats().send_drops, 1u);
    EXPECT_EQ(*recv_copy(*b), bytes({1}));
    EXPECT_TRUE(send_one(*a, bytes({3})));  // space again
    EXPECT_EQ(*recv_copy(*b), bytes({2}));
    EXPECT_EQ(*recv_copy(*b), bytes({3}));
}

TEST(UdpTransport, LoopbackRoundTrip) {
    auto [a, b] = UdpTransport::make_pair();
    ASSERT_GE(a->fd(), 0);
    EXPECT_TRUE(send_one(*a, bytes({0xBA, 0x01})));
    const int fds[] = {b->fd()};
    ASSERT_TRUE(wait_readable(fds, 2 * kSecond));
    const auto got = recv_copy(*b);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes({0xBA, 0x01}));
}

// -------------------------------------------------------- batch path --

std::vector<std::uint8_t> numbered_datagram(std::size_t i, std::size_t size) {
    std::vector<std::uint8_t> d(size);
    for (std::size_t k = 0; k < size; ++k) {
        d[k] = static_cast<std::uint8_t>(i + k);
    }
    return d;
}

TEST(TransportBatch, UdpSendmmsgRecvmmsgRoundTrip) {
    auto [a, b] = UdpTransport::make_pair();
    constexpr std::size_t kN = 12;
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < kN; ++i) {
        datagrams.push_back(numbered_datagram(i, 32 + i));
        spans.emplace_back(datagrams.back());
    }
    EXPECT_EQ(a->send_batch(spans), kN);
    EXPECT_EQ(a->stats().datagrams_sent, kN);
    // The whole batch crossed the boundary in one sendmmsg.
    EXPECT_EQ(a->stats().syscalls_sent, 1u);

    const int fds[] = {b->fd()};
    ASSERT_TRUE(wait_readable(fds, 2 * kSecond));
    RecvBatch batch(kN);
    std::size_t got = 0;
    // Loopback delivery is asynchronous; drain until the full batch has
    // arrived (bounded by the wait above plus a few retries).
    for (int tries = 0; got < kN && tries < 100; ++tries) {
        const std::size_t n = b->recv_batch(batch);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(batch[i].size(), 32 + got + i);
        }
        got += n;
        if (n == 0) wait_readable(fds, 10 * kMillisecond);
    }
    EXPECT_EQ(got, kN);
    EXPECT_EQ(b->stats().datagrams_received, kN);
    // recv_batch drains exactly what sendmmsg pushed: nothing extra.
    EXPECT_EQ(b->recv_batch(batch), 0u);
}

TEST(TransportBatch, RecvBatchDrainsInArenaSizedChunks) {
    auto [a, b] = InprocTransport::make_pair();
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < 20; ++i) {
        datagrams.push_back(numbered_datagram(i, 8));
        spans.emplace_back(datagrams.back());
    }
    EXPECT_EQ(a->send_batch(spans), 20u);
    RecvBatch batch(8);
    EXPECT_EQ(b->recv_batch(batch), 8u);
    EXPECT_EQ(batch.size(), 8u);
    EXPECT_EQ(to_vec(batch[0]), to_vec(spans[0]));
    EXPECT_EQ(b->recv_batch(batch), 8u);
    EXPECT_EQ(to_vec(batch[7]), to_vec(spans[15]));
    EXPECT_EQ(b->recv_batch(batch), 4u);
    EXPECT_EQ(b->recv_batch(batch), 0u);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(b->stats().datagrams_received, 20u);
}

TEST(TransportBatch, PartialSendCountsTailAsDrops) {
    auto [a, b] = InprocTransport::make_pair(/*capacity=*/4);
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < 7; ++i) {
        datagrams.push_back(numbered_datagram(i, 4));
        spans.emplace_back(datagrams.back());
    }
    // Queue full mid-batch: the accepted prefix is reported, the tail is
    // counted as send_drops -- indistinguishable from channel loss.
    EXPECT_EQ(a->send_batch(spans), 4u);
    EXPECT_EQ(a->stats().datagrams_sent, 4u);
    EXPECT_EQ(a->stats().send_drops, 3u);
    RecvBatch batch(8);
    EXPECT_EQ(b->recv_batch(batch), 4u);
    EXPECT_EQ(to_vec(batch[3]), to_vec(spans[3]));
}

TEST(TransportBatch, InprocBatchAndBatchOfOneMoveIdenticalBytes) {
    auto [a1, b1] = InprocTransport::make_pair();
    auto [a2, b2] = InprocTransport::make_pair();
    std::vector<std::vector<std::uint8_t>> datagrams;
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < 9; ++i) {
        datagrams.push_back(numbered_datagram(i, 16));
        spans.emplace_back(datagrams.back());
    }
    EXPECT_EQ(a1->send_batch(spans), 9u);
    for (const auto& s : spans) EXPECT_TRUE(send_one(*a2, s));
    // Same datagrams, same order, same totals -- only the syscall count
    // differs (1 sweep vs 9).
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(*recv_copy(*b1), *recv_copy(*b2));
    }
    EXPECT_EQ(a1->stats().datagrams_sent, a2->stats().datagrams_sent);
    EXPECT_EQ(a1->stats().bytes_sent, a2->stats().bytes_sent);
    EXPECT_EQ(a1->stats().syscalls_sent, 1u);
    EXPECT_EQ(a2->stats().syscalls_sent, 9u);
}

TEST(RecvBatch, SlotsAreFixedStrideAndReusable) {
    RecvBatch batch(3, /*max_datagram=*/64);
    EXPECT_EQ(batch.capacity(), 3u);
    EXPECT_EQ(batch.max_datagram(), 64u);
    auto s0 = batch.next_slot();
    s0[0] = 0xAA;
    batch.push_filled(1);
    auto s1 = batch.next_slot();
    EXPECT_EQ(s1.data(), s0.data() + 64);
    s1[0] = 0xBB;
    s1[1] = 0xCC;
    batch.push_filled(2);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(to_vec(batch[0]), bytes({0xAA}));
    EXPECT_EQ(to_vec(batch[1]), bytes({0xBB, 0xCC}));
    batch.clear();
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(batch.next_slot().data(), s0.data());  // same arena, no realloc
}

// ------------------------------------------------------ wait_readable --

// The old implementation hard-capped at 8 descriptors with an assert;
// the span now sizes the poll set, with kWaitFdStackCapacity staged on
// the stack and larger sets taking a heap fallback.  Exercise both sides
// of the boundary plus one past it.
TEST(WaitReadable, HandlesFdSetsAcrossTheStackCapacityBoundary) {
    std::vector<std::unique_ptr<UdpTransport>> pairs_a;
    std::vector<std::unique_ptr<UdpTransport>> pairs_b;
    std::vector<int> fds;
    const std::size_t kCount = kWaitFdStackCapacity + 6;
    for (std::size_t i = 0; i < kCount; ++i) {
        auto [a, b] = UdpTransport::make_pair();
        fds.push_back(b->fd());
        pairs_a.push_back(std::move(a));
        pairs_b.push_back(std::move(b));
    }
    fds.push_back(-1);  // negative descriptors are skipped, not counted

    for (const std::size_t count :
         {kWaitFdStackCapacity - 1, kWaitFdStackCapacity, kWaitFdStackCapacity + 1, kCount}) {
        // Nothing readable: times out false.
        EXPECT_FALSE(wait_readable(std::span<const int>(fds.data(), count), kMillisecond))
            << count;
        // Make the *last* descriptor in the set readable so truncation
        // would be caught.
        ASSERT_TRUE(send_one(*pairs_a[count - 1], bytes({1})));
        EXPECT_TRUE(wait_readable(std::span<const int>(fds.data(), count), 2 * kSecond))
            << count;
        ASSERT_TRUE(recv_copy(*pairs_b[count - 1]).has_value());
    }
}

// --------------------------------------------------------- idle_wait --

// The one idle wait of every real-time loop returns on whichever comes
// first: a readable socket, the earliest armed timer, or the cap that
// keeps stop flags and run deadlines live.
TEST(IdleWait, WakesOnReadableSocketTimerDeadlineOrCap) {
    SteadyClock clock;
    TimerWheel wheel(clock);
    auto [a, b] = UdpTransport::make_pair();
    const int fds[] = {b->fd()};
    const TimerWheel* const wheels[] = {&wheel};

    // A readable socket returns at once, with no timer armed.
    ASSERT_TRUE(send_one(*a, bytes({7})));
    SimTime t0 = clock.now();
    EXPECT_TRUE(idle_wait(fds, wheels));
    EXPECT_LT(clock.now() - t0, kIdleWaitCap / 2);
    ASSERT_TRUE(recv_copy(*b).has_value());

    // A timer armed 3 ms out: returns once it is due (>= 3 ms after
    // arming), long before the cap.
    t0 = clock.now();
    wheel.schedule_after(3 * kMillisecond, [] {});
    EXPECT_FALSE(idle_wait(fds, wheels));
    const SimTime timed = clock.now() - t0;
    EXPECT_GE(timed, 3 * kMillisecond);
    EXPECT_LT(timed, kIdleWaitCap / 2);
    EXPECT_EQ(wheel.fire_due(), 1u);

    // No timer armed and nothing to read: about the cap.
    ASSERT_FALSE(wheel.next_deadline().has_value());
    t0 = clock.now();
    EXPECT_FALSE(idle_wait(fds, wheels));
    const SimTime capped = clock.now() - t0;
    EXPECT_GE(capped, kIdleWaitCap);
    EXPECT_LT(capped, 3 * kIdleWaitCap);
}

// ------------------------------------------------------- net::Metrics --

TEST(NetMetrics, FieldsCoverEveryCounterAndToJsonMatches) {
    Metrics m;
    m.datagrams_sent = 1;
    m.bytes_sent = 2;
    m.datagrams_received = 3;
    m.bytes_received = 4;
    m.send_drops = 5;
    m.syscalls_sent = 6;
    m.syscalls_received = 7;
    m.offered = 8;
    m.dropped = 9;
    m.duplicated = 10;
    m.reordered = 11;
    m.delayed = 12;
    const auto fields = m.fields();
    ASSERT_EQ(fields.size(), Metrics::kFieldCount);
    // Every counter appears exactly once, with the value 1..12 we set:
    // summing them catches a missing or duplicated field.
    std::uint64_t sum = 0;
    for (const auto& f : fields) sum += f.value;
    EXPECT_EQ(sum, 78u);
    const std::string json = m.to_json();
    for (const auto& f : fields) {
        const std::string needle =
            "\"" + std::string(f.name) + "\":" + std::to_string(f.value);
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
    }
    Metrics sum2 = m;
    sum2 += m;
    EXPECT_EQ(sum2.datagrams_sent, 2u);
    EXPECT_EQ(sum2.delayed, 24u);
    EXPECT_DOUBLE_EQ(m.datagrams_per_send_syscall(), 1.0 / 6.0);
}

// -------------------------------------------------------- timer wheel --

TEST(TimerWheel, FiresInDeadlineThenFifoOrder) {
    ManualClock clock;
    TimerWheel wheel(clock);
    std::vector<int> order;
    wheel.schedule_after(5, [&] { order.push_back(5); });
    wheel.schedule_after(1, [&] { order.push_back(1); });
    wheel.schedule_after(3, [&] { order.push_back(3); });
    wheel.schedule_after(3, [&] { order.push_back(30); });  // FIFO at equal deadline
    EXPECT_EQ(wheel.armed(), 4u);
    ASSERT_TRUE(wheel.next_deadline().has_value());
    EXPECT_EQ(*wheel.next_deadline(), 1);

    EXPECT_EQ(wheel.fire_due(), 0u);  // nothing due at t=0
    clock.advance(3);
    EXPECT_EQ(wheel.fire_due(), 3u);
    clock.advance(2);
    EXPECT_EQ(wheel.fire_due(), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 3, 30, 5}));
    EXPECT_EQ(wheel.armed(), 0u);
    EXPECT_FALSE(wheel.next_deadline().has_value());
}

TEST(TimerWheel, CancelIsLazyAndIdempotent) {
    ManualClock clock;
    TimerWheel wheel(clock);
    int fired = 0;
    const TimerId a = wheel.schedule_after(1, [&] { ++fired; });
    const TimerId b = wheel.schedule_after(2, [&] { ++fired; });
    EXPECT_NE(a, kInvalidTimer);
    EXPECT_NE(a, b);  // ids are never reused
    wheel.cancel(a);
    wheel.cancel(a);             // repeat cancel: no-op
    wheel.cancel(kInvalidTimer); // invalid id: no-op
    EXPECT_EQ(wheel.armed(), 1u);
    EXPECT_EQ(*wheel.next_deadline(), 2);  // cancelled head skipped
    clock.advance(10);
    EXPECT_EQ(wheel.fire_due(), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, HandlerMayScheduleAlreadyDueTimer) {
    ManualClock clock;
    TimerWheel wheel(clock);
    std::vector<int> order;
    wheel.schedule_after(1, [&] {
        order.push_back(1);
        wheel.schedule_after(0, [&] { order.push_back(2); });
    });
    clock.advance(1);
    EXPECT_EQ(wheel.fire_due(), 2u);  // the chained timer fires in the same call
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(OneShotTimerOnWheel, RestartAndCancel) {
    ManualClock clock;
    TimerWheel wheel(clock);
    int fired = 0;
    OneShotTimer timer(wheel, [&] { ++fired; });
    timer.restart(5);
    EXPECT_TRUE(timer.armed());
    clock.advance(3);
    timer.restart(5);  // push the deadline out
    clock.advance(3);
    wheel.fire_due();
    EXPECT_EQ(fired, 0);
    clock.advance(2);
    wheel.fire_due();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(timer.armed());
    timer.restart(1);
    timer.cancel();
    clock.advance(10);
    wheel.fire_due();
    EXPECT_EQ(fired, 1);
}

// ----------------------------------------------------------- impairer --

/// Drives `n` sends through an Impairer and returns the exact sequence of
/// datagrams (in receive order) after all delayed copies have fired.
std::vector<std::vector<std::uint8_t>> impaired_run(std::uint64_t seed, int n) {
    ManualClock clock;
    TimerWheel wheel(clock);
    auto [a, b] = InprocTransport::make_pair();
    ImpairSpec spec;
    spec.loss = 0.2;
    spec.dup = 0.2;
    spec.reorder = 0.3;
    spec.delay_lo = 1 * kMillisecond;
    spec.delay_hi = 4 * kMillisecond;
    Impairer impaired(*a, wheel, spec, seed);
    for (int i = 0; i < n; ++i) {
        send_one(impaired, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
    }
    while (const auto deadline = wheel.next_deadline()) {
        clock.advance_to(*deadline);
        wheel.fire_due();
        // Matured delayed copies stage until the owner flushes -- the same
        // contract NetEndpoint::poll() follow after fire_due().
        impaired.flush();
    }
    std::vector<std::vector<std::uint8_t>> received;
    while (auto datagram = recv_copy(*b)) received.push_back(*datagram);
    return received;
}

TEST(Impairer, SameSeedSameImpairmentSequence) {
    const auto first = impaired_run(42, 200);
    const auto second = impaired_run(42, 200);
    EXPECT_EQ(first, second);  // byte-identical traffic, same order
    EXPECT_NE(first, impaired_run(43, 200));
    // With loss and dup both at 20%, the totals differ from n with
    // overwhelming probability but stay within [0, 2n].
    EXPECT_GT(first.size(), 100u);
    EXPECT_LT(first.size(), 400u);
}

TEST(Impairer, BatchAndSingleDatagramPathsAreSeedEquivalent) {
    // The same seed must yield the same impairment decisions whether the
    // datagrams arrive as one batch or one at a time -- the per-datagram
    // RNG draw order is the contract.
    auto run = [](bool batched) {
        ManualClock clock;
        TimerWheel wheel(clock);
        auto [a, b] = InprocTransport::make_pair();
        ImpairSpec spec;
        spec.loss = 0.25;
        spec.dup = 0.25;
        spec.reorder = 0.25;
        spec.delay_lo = 1 * kMillisecond;
        spec.delay_hi = 3 * kMillisecond;
        Impairer impaired(*a, wheel, spec, /*seed=*/99);
        std::vector<std::vector<std::uint8_t>> datagrams;
        std::vector<std::span<const std::uint8_t>> spans;
        for (std::size_t i = 0; i < 64; ++i) {
            datagrams.push_back(numbered_datagram(i, 8));
            spans.emplace_back(datagrams.back());
        }
        if (batched) {
            impaired.send_batch(spans);
        } else {
            for (const auto& s : spans) send_one(impaired, s);
        }
        while (const auto deadline = wheel.next_deadline()) {
            clock.advance_to(*deadline);
            wheel.fire_due();
            impaired.flush();
        }
        std::vector<std::vector<std::uint8_t>> received;
        while (auto datagram = recv_copy(*b)) received.push_back(*datagram);
        return std::make_pair(received, impaired.impair_stats());
    };
    const auto [batch_rx, batch_stats] = run(true);
    const auto [single_rx, single_stats] = run(false);
    EXPECT_EQ(batch_rx, single_rx);
    EXPECT_EQ(batch_stats.dropped, single_stats.dropped);
    EXPECT_EQ(batch_stats.duplicated, single_stats.duplicated);
    EXPECT_EQ(batch_stats.reordered, single_stats.reordered);
    EXPECT_EQ(batch_stats.delayed, single_stats.delayed);
    EXPECT_GT(batch_stats.dropped, 0u);  // the impairments actually ran
}

TEST(Impairer, CorruptKnobDoesNotPerturbImpairmentStream) {
    // Corruption draws come from a separately seeded stream, so turning
    // the knob on must not move a single loss/dup/reorder decision of an
    // existing seed.
    auto run = [](double corrupt) {
        ManualClock clock;
        TimerWheel wheel(clock);
        auto [a, b] = InprocTransport::make_pair();
        ImpairSpec spec;
        spec.loss = 0.25;
        spec.dup = 0.25;
        spec.reorder = 0.25;
        spec.delay_lo = 1 * kMillisecond;
        spec.delay_hi = 3 * kMillisecond;
        spec.corrupt = corrupt;
        Impairer impaired(*a, wheel, spec, /*seed=*/1234);
        for (std::size_t i = 0; i < 128; ++i) send_one(impaired, numbered_datagram(i, 16));
        while (const auto deadline = wheel.next_deadline()) {
            clock.advance_to(*deadline);
            wheel.fire_due();
            impaired.flush();
        }
        while (recv_copy(*b)) {
        }
        return impaired.impair_stats();
    };
    const Metrics off = run(0.0);
    const Metrics on = run(0.5);
    EXPECT_EQ(off.dropped, on.dropped);
    EXPECT_EQ(off.duplicated, on.duplicated);
    EXPECT_EQ(off.reordered, on.reordered);
    EXPECT_EQ(off.delayed, on.delayed);
    EXPECT_EQ(off.corrupted, 0u);
    EXPECT_GT(on.corrupted, 0u);
    // Both flavors showed up: some flips re-sealed, some left stale.
    EXPECT_GT(on.corrupted_sealed, 0u);
    EXPECT_LT(on.corrupted_sealed, on.corrupted);
}

TEST(Impairer, CorruptBatchAndSinglePathsAreSeedEquivalent) {
    // The per-copy corrupt draw happens in dispatch order, so batch and
    // one-at-a-time sends corrupt the same copies the same way.
    auto run = [](bool batched) {
        ManualClock clock;
        TimerWheel wheel(clock);
        auto [a, b] = InprocTransport::make_pair();
        ImpairSpec spec;
        spec.loss = 0.2;
        spec.dup = 0.2;
        spec.delay_lo = 1 * kMillisecond;
        spec.delay_hi = 2 * kMillisecond;
        spec.corrupt = 0.5;
        Impairer impaired(*a, wheel, spec, /*seed=*/77);
        std::vector<std::vector<std::uint8_t>> datagrams;
        std::vector<std::span<const std::uint8_t>> spans;
        for (std::size_t i = 0; i < 64; ++i) {
            datagrams.push_back(numbered_datagram(i, 12));
            spans.emplace_back(datagrams.back());
        }
        if (batched) {
            impaired.send_batch(spans);
        } else {
            for (const auto& s : spans) send_one(impaired, s);
        }
        while (const auto deadline = wheel.next_deadline()) {
            clock.advance_to(*deadline);
            wheel.fire_due();
            impaired.flush();
        }
        std::vector<std::vector<std::uint8_t>> received;
        while (auto datagram = recv_copy(*b)) received.push_back(*datagram);
        return std::make_pair(received, impaired.impair_stats());
    };
    const auto [batch_rx, batch_stats] = run(true);
    const auto [single_rx, single_stats] = run(false);
    EXPECT_EQ(batch_rx, single_rx);  // byte-identical, flips included
    EXPECT_EQ(batch_stats.corrupted, single_stats.corrupted);
    EXPECT_EQ(batch_stats.corrupted_sealed, single_stats.corrupted_sealed);
    EXPECT_GT(batch_stats.corrupted, 0u);
}

TEST(Impairer, CorruptSplitsSealedAndStaleCrcFlavors) {
    // Feed CRC-framed datagrams (body + crc32c trailer, the codec's
    // layout) through corrupt=1.0: every copy gets a byte flipped in the
    // body, and the sealed half must still carry a *valid* trailer --
    // those are the frames the codec cannot catch.
    ManualClock clock;
    TimerWheel wheel(clock);
    auto [a, b] = InprocTransport::make_pair();
    ImpairSpec spec;
    spec.corrupt = 1.0;
    Impairer impaired(*a, wheel, spec, /*seed=*/5);
    constexpr std::size_t kN = 64;
    std::vector<std::vector<std::uint8_t>> sent;
    for (std::size_t i = 0; i < kN; ++i) {
        std::vector<std::uint8_t> frame(12, static_cast<std::uint8_t>(i));
        const std::uint32_t crc = wire::crc32c({frame.data(), frame.size()});
        for (int shift = 0; shift < 32; shift += 8) {
            frame.push_back(static_cast<std::uint8_t>(crc >> shift));
        }
        sent.push_back(frame);
        send_one(impaired, frame);
    }
    const Metrics stats = impaired.impair_stats();
    EXPECT_EQ(stats.corrupted, kN);
    EXPECT_GT(stats.corrupted_sealed, 0u);
    EXPECT_LT(stats.corrupted_sealed, kN);
    std::size_t received = 0;
    std::size_t crc_valid = 0;
    while (auto datagram = recv_copy(*b)) {
        const std::size_t body = datagram->size() - 4;
        const std::size_t i = received++;
        ASSERT_EQ(datagram->size(), sent[i].size());
        // The flip always lands below the trailer and never XORs zero.
        EXPECT_NE(to_vec(std::span(datagram->data(), body)),
                  to_vec(std::span(sent[i].data(), body)));
        const std::uint32_t crc = wire::crc32c({datagram->data(), body});
        std::uint32_t trailer = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            trailer |= static_cast<std::uint32_t>((*datagram)[body + shift / 8]) << shift;
        }
        if (crc == trailer) ++crc_valid;
    }
    EXPECT_EQ(received, kN);
    // Exactly the re-sealed copies still verify; the rest are BadCrc.
    EXPECT_EQ(crc_valid, stats.corrupted_sealed);

    // Frames too small to carry a trailer pass through untouched.
    send_one(impaired, bytes({1, 2, 3}));
    EXPECT_EQ(*recv_copy(*b), bytes({1, 2, 3}));
    EXPECT_EQ(impaired.impair_stats().corrupted, kN);
}

TEST(Impairer, TransparentByDefault) {
    ManualClock clock;
    TimerWheel wheel(clock);
    auto [a, b] = InprocTransport::make_pair();
    Impairer impaired(*a, wheel, ImpairSpec{}, 7);
    for (int i = 0; i < 50; ++i) {
        send_one(impaired, std::vector<std::uint8_t>{static_cast<std::uint8_t>(i)});
    }
    EXPECT_EQ(wheel.armed(), 0u);  // nothing parked
    for (int i = 0; i < 50; ++i) {
        const auto got = recv_copy(*b);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ((*got)[0], static_cast<std::uint8_t>(i));
    }
}

// --------------------------------------------------- pattern payloads --

TEST(PatternPayload, DeterministicAndSeqDependent) {
    EXPECT_EQ(pattern_payload(5, 64), pattern_payload(5, 64));
    EXPECT_NE(pattern_payload(5, 64), pattern_payload(6, 64));
    EXPECT_EQ(pattern_payload(5, 64).size(), 64u);
    EXPECT_EQ(pattern_payload(0, 3).size(), 3u);
}

// ------------------------------------------------- in-process engine --

NetConfig inproc_config(Seq count, double loss, std::uint64_t seed) {
    NetConfig cfg;
    cfg.w = 8;
    cfg.count = count;
    cfg.payload_size = 256;
    cfg.impair = ImpairSpec::lossy(loss);
    cfg.seed = seed;
    return cfg;
}

template <typename Engine>
NetReport run_inproc(const NetConfig& cfg) {
    Engine engine(cfg, {}, NetMode::Inproc);
    return engine.run();
}

template <typename Engine>
void expect_deterministic(const char* name) {
    const NetConfig cfg = inproc_config(200, 0.1, 99);
    const NetReport first = run_inproc<Engine>(cfg);
    const NetReport second = run_inproc<Engine>(cfg);
    EXPECT_TRUE(first.completed) << name;
    EXPECT_EQ(first.metrics.delivered, 200u) << name;
    EXPECT_EQ(first.payload_mismatches, 0u) << name;
    EXPECT_GT(first.metrics.data_retx, 0u) << name;  // impairment did bite
    // Pure function of the seed: every counter replays exactly.
    EXPECT_EQ(first.bytes_delivered, second.bytes_delivered) << name;
    EXPECT_EQ(first.metrics.data_retx, second.metrics.data_retx) << name;
    EXPECT_EQ(first.metrics.acks_sent, second.metrics.acks_sent) << name;
    EXPECT_EQ(first.elapsed, second.elapsed) << name;
}

TEST(NetEngineInproc, BlockAckDeterministicUnderImpairment) {
    expect_deterministic<BaNetEngine>("ba");
}

TEST(NetEngineInproc, GoBackNDeterministicUnderImpairment) {
    expect_deterministic<GbnNetEngine>("gbn");
}

TEST(NetEngineInproc, SelectiveRepeatDeterministicUnderImpairment) {
    expect_deterministic<SrNetEngine>("sr");
}

TEST(NetEngineInproc, CleanChannelDeliversEveryByteOnce) {
    NetConfig cfg = inproc_config(300, 0.0, 5);
    const NetReport report = run_inproc<BaNetEngine>(cfg);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.metrics.delivered, 300u);
    EXPECT_EQ(report.metrics.data_retx, 0u);
    EXPECT_EQ(report.bytes_delivered, 300u * cfg.payload_size);
    EXPECT_EQ(report.metrics.decode_errors, 0u);
}

// cfg.batch = 1 degenerates the batch path to one datagram per
// send/recv sweep -- the pre-batch behaviour.  The transfer must still
// complete with identical protocol results, and the syscall counters
// must show the batched run amortizing and the single-shot run not.
TEST(NetEngineInproc, SingleShotBatchKnobMatchesBatchedResults) {
    NetConfig batched_cfg = inproc_config(200, 0.0, 77);
    // A genuinely clean channel: lossy(0.0) still jitters every datagram
    // by 200us-1ms, which fragments batches onto per-copy timers.  The
    // amortization claim needs the undisturbed path.
    batched_cfg.impair = ImpairSpec{};
    NetConfig single_cfg = batched_cfg;
    single_cfg.batch = 1;
    const NetReport batched = run_inproc<BaNetEngine>(batched_cfg);
    const NetReport single = run_inproc<BaNetEngine>(single_cfg);
    EXPECT_TRUE(batched.completed);
    EXPECT_TRUE(single.completed);
    EXPECT_EQ(batched.bytes_delivered, single.bytes_delivered);
    EXPECT_EQ(batched.metrics.delivered, single.metrics.delivered);
    EXPECT_EQ(batched.payload_mismatches, 0u);
    EXPECT_EQ(single.payload_mismatches, 0u);
    const Metrics bt = batched.transport_totals();
    const Metrics st = single.transport_totals();
    EXPECT_EQ(bt.datagrams_sent, st.datagrams_sent);  // same traffic
    EXPECT_LT(bt.syscalls_sent, st.syscalls_sent);    // fewer sweeps
    EXPECT_EQ(st.syscalls_sent, st.datagrams_sent);   // 1 dgram per sweep
    EXPECT_GT(batched.datagrams_per_send_syscall(), 1.5);
}

// The quiescence-timer approximation of the oracle disciplines must
// still complete transfers in real-time mode (DESIGN.md, real-time
// runtime): the resend sets are the paper's, only the firing moment is
// heuristic.
TEST(NetEngineInproc, OracleModesCompleteViaQuiescenceTimer) {
    for (const auto mode :
         {runtime::TimeoutMode::OracleSimple, runtime::TimeoutMode::OraclePerMessage}) {
        NetConfig cfg = inproc_config(120, 0.1, 31);
        cfg.timeout_mode = mode;
        const NetReport report = run_inproc<BaNetEngine>(cfg);
        EXPECT_TRUE(report.completed) << to_string(mode);
        EXPECT_EQ(report.payload_mismatches, 0u) << to_string(mode);
    }
}

// Bounded cores ack residue ranges mod 2w; a block that straddles the
// domain edge reaches the egress as (lo, hi) with hi < lo -- e.g.
// (6, 0) in domain 8 -- which the wire's closed-interval ack frame
// cannot carry, so the net adapter must emit it as two frames.
// Loss-driven hole repair lands multi-message blocks at arbitrary
// domain offsets, so this seeded run crosses the edge repeatedly
// (loss-free runs never do: the window paces block boundaries onto
// multiples of w, which divide 2w).  Before the split, the first
// wrapped block aborted on the codec's lo <= hi assert.
TEST(NetEngineInproc, BoundedResidueAcksSurviveDomainWrap) {
    NetConfig cfg = inproc_config(200, 0.1, 4);
    cfg.w = 4;  // residue domain 2w = 8
    const NetReport report = run_inproc<BoundedBaNetEngine>(cfg);
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.metrics.delivered, 200u);
    EXPECT_EQ(report.payload_mismatches, 0u);
}

// ------------------------------------------------- UDP loopback soak --

// Short and time-bounded (the deadline caps it): real sockets, real
// clock, seeded impairment.  The assertion is the protocol guarantee --
// every accepted payload is delivered exactly once, in order, bytes
// intact -- not timing, which loopback does not make reproducible.
TEST(NetEngineUdp, LoopbackSoakDeliversEverythingUncorrupted) {
    NetConfig cfg;
    cfg.w = 16;
    cfg.count = 400;
    cfg.payload_size = 512;
    cfg.impair = ImpairSpec::lossy(0.05);
    cfg.seed = 17;
    cfg.link_lifetime = 20 * kMillisecond;  // keeps retransmission brisk
    cfg.deadline = 20 * kSecond;
    BaNetEngine engine(cfg, {}, NetMode::Udp);
    const NetReport report = engine.run();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.metrics.delivered, 400u);
    EXPECT_EQ(report.payload_mismatches, 0u);
    EXPECT_EQ(report.bytes_delivered, 400u * 512u);
    EXPECT_EQ(report.metrics.crc_errors, 0u);  // loopback does not corrupt
}

TEST(NetEngineUdp, ThreadedRunCompletes) {
    NetConfig cfg;
    cfg.w = 16;
    cfg.count = 200;
    cfg.payload_size = 256;
    cfg.seed = 23;
    cfg.link_lifetime = 20 * kMillisecond;
    cfg.deadline = 20 * kSecond;
    BaNetEngine engine(cfg, {}, NetMode::Udp);
    const NetReport report = engine.run_threaded();
    EXPECT_TRUE(report.completed);
    EXPECT_EQ(report.payload_mismatches, 0u);
}

}  // namespace
}  // namespace bacp::net
