// Per-session memory: what a Server session and a ClientFleet member
// actually hold on the heap, the lazily allocated Histogram that makes
// most of it unnecessary, the fleet's one ack-latency histogram that
// replaces each member's own, the receive arena whose pages stay
// non-resident until datagrams land in them, and the UDP send scratch
// that no burst size makes grow.
//
// A byte-counting operator new (tests/alloc_counting.cpp)
// attributes live heap growth to the server or the fleet call that caused
// it.  The bounds are per session at the `fleet` benchmark shape (w=2,
// 32 B payloads, 160 B frames), so a buffer that quietly grows with
// every session fails here long before a 100k-session run runs out of
// memory.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <unistd.h>
#include <vector>

#include "alloc_counting.hpp"
#include "ba/engine_core.hpp"
#include "common/histogram.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"

namespace bacp {

namespace {

using test::Counting;

// ---- Histogram: lazy buckets, unchanged answers -------------------------

TEST(HistogramFootprint, AllocatesNothingUntilFirstAdd) {
    std::uint64_t allocs = 0;
    {
        Counting c;
        Histogram h;
        EXPECT_EQ(h.count(), 0u);
        EXPECT_EQ(h.quantile(0.99), 0);
        EXPECT_EQ(h.min(), 0);
        EXPECT_EQ(h.max(), 0);
        const Histogram copy = h;
        EXPECT_EQ(copy.count(), 0u);
        h.reset();
        allocs = c.allocs();
    }
    EXPECT_EQ(allocs, 0u) << "an unfed histogram touched the heap";

    Histogram h;
    {
        Counting c;
        h.add(42);
        allocs = c.allocs();
    }
    EXPECT_EQ(allocs, 1u) << "the first add allocates the bucket array, once";
    {
        Counting c;
        for (std::int64_t v = 0; v < 100000; v += 7) h.add(v * 1013);
        h.reset();
        h.add(1);
        allocs = c.allocs();
    }
    EXPECT_EQ(allocs, 0u) << "recording after the first add must not allocate";
}

TEST(HistogramFootprint, MergingAnEmptyHistogramAllocatesNothing) {
    Histogram empty;
    Histogram target;
    Histogram fed;
    fed.add(5);
    fed.add(500);
    std::uint64_t allocs = 0;
    {
        Counting c;
        target.merge(empty);
        fed.merge(empty);
        allocs = c.allocs();
    }
    EXPECT_EQ(allocs, 0u);
    EXPECT_EQ(target.count(), 0u);
    EXPECT_EQ(fed.count(), 2u);

    Histogram cleared;
    cleared.add(9);
    cleared.reset();
    {
        Counting c;
        target.merge(cleared);  // allocated but empty: still nothing to add
        allocs = c.allocs();
    }
    EXPECT_EQ(allocs, 0u);

    target.merge(fed);  // the first non-empty merge allocates
    EXPECT_EQ(target.count(), 2u);
    EXPECT_EQ(target.min(), 5);
    EXPECT_EQ(target.max(), 500);
    EXPECT_EQ(target.quantile(1.0), fed.quantile(1.0));
}

/// A fixed sample set spanning the exact range, the log-bucketed range,
/// large outliers and clamped negatives.
std::vector<std::int64_t> golden_samples() {
    std::vector<std::int64_t> out;
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t r = x >> 17;
        switch (i % 5) {
            case 0: out.push_back(static_cast<std::int64_t>(r % 32)); break;
            case 1: out.push_back(static_cast<std::int64_t>(r % 5000)); break;
            case 2: out.push_back(static_cast<std::int64_t>(r % 2'000'000)); break;
            case 3: out.push_back(static_cast<std::int64_t>(r % 40'000'000'000ULL)); break;
            default: out.push_back(-static_cast<std::int64_t>(r % 100)); break;
        }
    }
    return out;
}

constexpr double kGoldenQ[] = {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};

/// Answers for golden_samples() at the default precision.  They pin the
/// bucket layout and the quantile rule, which allocating the buckets
/// lazily must not change.
constexpr std::int64_t kGoldenQuantiles[] = {
    0, 0, 0, 8, 2431, 1'572'863, 19'327'352'831, 38'654'705'663, 39'986'800'293, 39'986'800'293};
constexpr std::int64_t kGoldenMin = 0;
constexpr std::int64_t kGoldenMax = 39'986'800'293;
constexpr double kGoldenMean = 3'974'377'745.6078;

void expect_golden(const Histogram& h) {
    EXPECT_EQ(h.count(), 5000u);
    EXPECT_EQ(h.min(), kGoldenMin);
    EXPECT_EQ(h.max(), kGoldenMax);
    EXPECT_DOUBLE_EQ(h.mean(), kGoldenMean);
    for (std::size_t i = 0; i < std::size(kGoldenQ); ++i) {
        EXPECT_EQ(h.quantile(kGoldenQ[i]), kGoldenQuantiles[i]) << "q=" << kGoldenQ[i];
    }
}

TEST(HistogramFootprint, AnswersMatchGoldenValues) {
    const std::vector<std::int64_t> samples = golden_samples();
    Histogram whole;
    for (const std::int64_t v : samples) whole.add(v);
    expect_golden(whole);

    // The same samples split over two histograms and merged into a third
    // that never saw an add.
    Histogram lo;
    Histogram hi;
    for (std::size_t i = 0; i < samples.size(); ++i) (i % 2 ? hi : lo).add(samples[i]);
    Histogram merged;
    merged.merge(lo);
    merged.merge(hi);
    expect_golden(merged);
}

// ---- sessions at the fleet shape ----------------------------------------

namespace sessions {

using namespace net;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kSessions = 64;
constexpr Seq kMessages = 24;

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

ServerConfig server_config() {
    ServerConfig cfg;
    cfg.session = fleet_shape();
    cfg.session.count = 0;  // sink-only, as the fleet benchmark's server runs
    cfg.session.rx_count = kMessages;
    cfg.recv_batch = 64;
    cfg.idle_timeout = 600 * kSecond;
    return cfg;
}

struct Footprint {
    double server_per_session = 0;  // bytes
    double fleet_per_member = 0;
    std::size_t delivered = 0;
};

/// Polls both sides until neither has work, then jumps the clock to the
/// earliest armed timer, until the fleet is done (or nothing is armed
/// within a minute).
template <typename PollFleet, typename PollServer>
void run_to_done(ManualClock& clock, ClientFleet<Core>& fleet, Server<Core>& server,
                 PollFleet poll_fleet, PollServer poll_server) {
    const TimerWheel* const wheels[] = {&fleet.wheel(), &server.shard_wheel(0)};
    while (!fleet.done()) {
        while (poll_fleet() + poll_server() > 0) {
        }
        if (fleet.done()) break;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        if (!next || *next > 60 * kSecond) break;
        clock.advance_to(*next);
    }
}

/// Runs kSessions fleet sessions against a one-shard server to
/// completion, attributing live heap growth to whichever side's call
/// caused it.  The server's own construction (shard arena, table
/// reserve) is not per-session and is left out; the fleet's construction
/// builds its members and is counted.
Footprint measure() {
    ManualClock clock;
    InprocHub hub(4096, 8192);
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

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

    std::int64_t server_bytes = 0;
    std::int64_t fleet_bytes = 0;
    std::optional<ClientFleet<Core>> fleet;
    {
        Counting c;
        fleet.emplace(fcfg, typename Core::Options{}, clock, raw);
        fleet_bytes += c.live_bytes();
    }
    const auto poll_server = [&] {
        Counting c;
        const std::size_t work = server.poll();
        server_bytes += c.live_bytes();
        return work;
    };
    const auto poll_fleet = [&] {
        Counting c;
        const std::size_t work = fleet->poll();
        fleet_bytes += c.live_bytes();
        return work;
    };
    run_to_done(clock, *fleet, server, poll_fleet, poll_server);
    EXPECT_TRUE(fleet->done());
    EXPECT_EQ(server.session_count(), kSessions);

    Footprint f;
    f.server_per_session = static_cast<double>(server_bytes) / kSessions;
    f.fleet_per_member = static_cast<double>(fleet_bytes) / kSessions;
    for (const SessionView& v : server.sessions()) {
        f.delivered += v.delivered;
        EXPECT_EQ(v.payload_mismatches, 0u);
    }
    return f;
}

// Measured with glibc's usable sizes on x86-64, g++ 12: eager
// histograms and a 40-frame send slab held 74864 B per server session and
// 75266 B per fleet member.  Lazy histograms and a two-frame slab leave
// 6096 B per server session; a fleet member that also fed its own
// ack-latency histogram (15 KiB) held 21866 B, and one that records into
// the fleet's shared histogram holds 6754 B.  Staging straight onto the
// shard's or socket's batch (no send slab, no egress object) leaves
// 5549 B per server session (was 6028 B) and 6275 B per fleet member
// (was 6762 B).
constexpr double kServerBound = 6 * 1024;
constexpr double kFleetBound = 7 * 1024;

TEST(SessionFootprint, ServerSessionsAndFleetMembersHoldOnlyWhatTheyUse) {
    const Footprint f = measure();
    EXPECT_EQ(f.delivered, kSessions * kMessages);
    std::printf("heap bytes per server session %.0f, per fleet member %.0f\n",
                f.server_per_session, f.fleet_per_member);
    EXPECT_LE(f.server_per_session, kServerBound);
    EXPECT_LE(f.fleet_per_member, kFleetBound);
}

TEST(SessionFootprint, ArenaBudgetEstimateTracksCountedBytes) {
    const Footprint f = measure();
    // session_cap() = budget / session_footprint(): read the estimate
    // back through the budget it steers.
    ServerConfig cfg = server_config();
    cfg.max_sessions = std::size_t{1} << 40;
    cfg.arena_budget = std::size_t{1} << 30;
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    const double estimate =
        static_cast<double>(cfg.arena_budget) / static_cast<double>(server.session_cap());
    EXPECT_GE(estimate, 0.5 * f.server_per_session) << "estimate " << estimate;
    EXPECT_LE(estimate, 2.0 * f.server_per_session) << "estimate " << estimate;
}

/// Ack-latency answers of the run below, recorded by merging every
/// member's own tx_metrics().ack_latency (with the fleet's redirect
/// removed, so each member fed its own histogram).  The clock advances
/// with each poll's work and small rings drop first windows, so the
/// samples span queueing delays and one-second retransmit timeouts.
/// Since the server acks once per session per arena, fewer acks crowd
/// the 8-slot client rings and the 99th percentile no longer waits out
/// a timeout (it was 1'000'126'000 at one ack per DATA).
constexpr std::int64_t kFleetAckMin = 20'000;
constexpr std::int64_t kFleetAckMax = 1'000'052'000;
constexpr std::int64_t kFleetAckP50 = 69'631;
constexpr std::int64_t kFleetAckP99 = 129'023;

TEST(FleetAckLatency, OneHistogramRecordsEveryMembersAcks) {
    ManualClock clock;
    InprocHub hub(8, 40);
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
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
    fcfg.max_active = 24;
    fcfg.recv_batch = 64;
    ClientFleet<Core> fleet(fcfg, typename Core::Options{}, clock, raw);
    run_to_done(
        clock, fleet, server,
        [&] {
            const std::size_t work = fleet.poll();
            clock.advance(3 * kMicrosecond * static_cast<SimTime>(1 + work));
            return work;
        },
        [&] {
            const std::size_t work = server.poll();
            clock.advance(5 * kMicrosecond * static_cast<SimTime>(1 + work % 4));
            return work;
        });
    ASSERT_TRUE(fleet.done());

    std::uint64_t sent = 0;
    for (std::size_t i = 0; i < fleet.session_count(); ++i) {
        sent += fleet.session(i).tx_driver().sent_new();
        EXPECT_EQ(fleet.session(i).tx_metrics().ack_latency.count(), 0u) << "member " << i;
    }
    EXPECT_EQ(sent, kSessions * kMessages);

    const Histogram& h = fleet.ack_latency();
    EXPECT_EQ(h.count(), sent);
    EXPECT_EQ(h.min(), kFleetAckMin);
    EXPECT_EQ(h.max(), kFleetAckMax);
    EXPECT_EQ(h.quantile(0.5), kFleetAckP50);
    EXPECT_EQ(h.quantile(0.99), kFleetAckP99);
}

}  // namespace sessions

// ---- receive arenas -----------------------------------------------------

std::size_t resident_bytes() {
    std::ifstream statm("/proc/self/statm");
    std::size_t pages = 0;
    std::size_t resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

TEST(RecvBatchFootprint, ArenaIsNotResidentUntilDatagramsLand) {
    const std::size_t arena = 512 * net::kMaxDatagram;
    const std::size_t before = resident_bytes();
    net::RecvBatch batch(512, net::kMaxDatagram);
    const std::size_t after = resident_bytes();
    const std::size_t grown = after > before ? after - before : 0;
    EXPECT_LT(grown, arena / 8) << "constructing the arena made " << grown << " bytes resident";

    // The untouched slab still receives exactly what was sent.
    auto [a, b] = net::UdpTransport::make_pair();
    b->enable_offload(net::OffloadMode::Gso);  // the GRO staging slab, where supported
    std::vector<std::vector<std::uint8_t>> sent;
    for (std::size_t i = 0; i < 4; ++i) {
        std::vector<std::uint8_t> d(i == 3 ? 9000 : 40 + 17 * i);
        for (std::size_t k = 0; k < d.size(); ++k) {
            d[k] = static_cast<std::uint8_t>((k * 131 + i * 7 + 1) & 0xff);
        }
        sent.push_back(std::move(d));
    }
    std::vector<std::span<const std::uint8_t>> spans(sent.begin(), sent.end());
    ASSERT_EQ(a->send_batch(spans), sent.size());
    std::vector<std::vector<std::uint8_t>> got;
    const int fds[] = {b->fd()};
    for (int tries = 0; got.size() < sent.size() && tries < 200; ++tries) {
        const std::size_t n = b->recv_batch(batch);
        for (std::size_t i = 0; i < n; ++i) got.emplace_back(batch[i].begin(), batch[i].end());
        if (n == 0) net::wait_readable(fds, 10 * kMillisecond);
    }
    EXPECT_EQ(got, sent);
}

// ---- send scratch -------------------------------------------------------

/// Sends \p count datagrams of \p stride bytes, packed back to back the
/// way SendBatch stages them, through \p tx in one send_batch call.
/// Returns how many allocations the call made.
std::uint64_t send_burst(net::Transport& tx, std::size_t count, std::size_t stride) {
    std::vector<std::uint8_t> slab(count * stride);
    for (std::size_t k = 0; k < slab.size(); ++k) slab[k] = static_cast<std::uint8_t>(k * 7);
    std::vector<std::span<const std::uint8_t>> spans;
    for (std::size_t i = 0; i < count; ++i) spans.emplace_back(slab.data() + i * stride, stride);
    std::size_t accepted = 0;
    std::uint64_t allocs = 0;
    {
        Counting c;
        accepted = tx.send_batch(spans);
        allocs = c.allocs();
    }
    EXPECT_EQ(accepted, count);
    return allocs;
}

/// Reads until \p rx stays empty for 10 ms.
void drain(net::Transport& rx) {
    net::RecvBatch batch(256, 2048);
    const int fds[] = {rx.fd()};
    while (rx.recv_batch(batch) > 0 || net::wait_readable(fds, 10 * kMillisecond)) {
    }
}

TEST(UdpSendFootprint, BurstFourTimesTheWarmUpAllocatesNothing) {
    for (const net::OffloadMode mode : {net::OffloadMode::Mmsg, net::OffloadMode::Gso}) {
        auto [a, b] = net::UdpTransport::make_pair();
        a->enable_offload(mode);
        b->enable_offload(mode);
        // 300 then 1200: the larger burst also crosses one sendmmsg
        // call's 1024-header limit.
        send_burst(*a, 300, 120);
        drain(*b);
        EXPECT_EQ(send_burst(*a, 1200, 120), 0u)
            << "tier " << net::offload_mode_name(a->offload_tier());
        drain(*b);
        EXPECT_EQ(a->stats().datagrams_sent, 1500u);
    }
}

}  // namespace
}  // namespace bacp
