// Multi-session net::Server over the InprocHub star fabric, driven by a
// ManualClock so every run is exactly reproducible: session lifecycle
// (open on first frame, epoch reset, stale-epoch drops, idle eviction,
// capacity rejection), demux error accounting, per-session impairment
// seeding, and the supporting containers (PayloadStash, TimerWheel under
// session churn vs a multimap oracle).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "ba/engine_core.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/payload_stash.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/crc32.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

// ---- rig ---------------------------------------------------------------

/// One client endpoint: its hub ring, its wheel on the shared clock, and
/// a NetEndpoint tagged with its connection identity.
struct Client {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<TimerWheel> wheel;
    std::unique_ptr<NetEndpoint<Core>> sender;
};

NetConfig client_config(Seq count, wire::Conn conn = {}) {
    NetConfig cfg;
    cfg.w = 4;
    cfg.count = count;
    cfg.seed = 11;
    cfg.payload_size = 64;
    cfg.conn = conn;
    return cfg;
}

Client make_client(InprocHub& hub, ManualClock& clock, const NetConfig& cfg) {
    Client c;
    c.transport = hub.make_client();
    c.wheel = std::make_unique<TimerWheel>(clock);
    c.sender = std::make_unique<NetEndpoint<Core>>(cfg, typename Core::Options{}, *c.wheel,
                                                 *c.transport);
    c.sender->start();
    return c;
}

ServerConfig server_config() {
    ServerConfig cfg;
    cfg.session.w = 4;
    cfg.session.seed = 11;
    cfg.session.payload_size = 64;
    cfg.session.rx_count = 1 << 20;  // receivers run open-ended; senders decide length
    return cfg;
}

/// Runs clients and server to quiescence: drain all work at the current
/// instant, then jump the shared clock to the earliest armed deadline,
/// until every sender is done or no deadline at or before \p deadline
/// remains.
void drive(ManualClock& clock, Server<Core>& server, std::vector<Client*> clients,
           SimTime deadline = 120 * kSecond) {
    std::vector<const TimerWheel*> wheels;
    for (std::size_t i = 0; i < server.shard_count(); ++i) wheels.push_back(&server.shard_wheel(i));
    for (Client* c : clients) wheels.push_back(c->wheel.get());
    for (;;) {
        for (;;) {
            std::size_t work = server.poll();
            for (Client* c : clients) work += c->sender->poll();
            if (work == 0) break;
        }
        bool all_done = true;
        for (Client* c : clients) all_done = all_done && c->sender->done();
        if (all_done) return;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        if (!next || *next > deadline) return;
        clock.advance_to(*next);
    }
}

std::vector<Client*> raw(std::vector<Client>& clients) {
    std::vector<Client*> ptrs;
    for (Client& c : clients) ptrs.push_back(&c);
    return ptrs;
}

/// Hand-encodes a DATA frame and pushes it through \p t as one datagram.
void inject_data(Transport& t, Seq seq, wire::Conn conn) {
    std::vector<std::uint8_t> frame;
    const std::uint8_t payload[] = {1, 2, 3};
    wire::encode_data_to(frame, seq, payload, wire::kFlagNone, wire::kNoStream, conn);
    const std::span<const std::uint8_t> batch[] = {std::span<const std::uint8_t>{frame}};
    t.send_batch(batch);
}

// ---- lifecycle ---------------------------------------------------------

TEST(Server, MultiSessionTransfersComplete) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    constexpr Seq kCount = 30;
    constexpr std::size_t kSessions = 8;
    std::vector<Client> clients;
    for (std::size_t i = 0; i < kSessions; ++i) {
        clients.push_back(make_client(
            hub, clock, client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1})));
    }

    drive(clock, server, raw(clients));

    for (Client& c : clients) EXPECT_TRUE(c.sender->done());
    EXPECT_EQ(server.session_count(), kSessions);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, kSessions);
    EXPECT_EQ(stats.decode_errors, 0u);

    for (const SessionView& v : server.sessions()) {
        EXPECT_EQ(v.epoch, 1u);
        EXPECT_EQ(v.delivered, kCount);
        EXPECT_EQ(v.bytes_delivered, kCount * 64u);
        EXPECT_EQ(v.payload_mismatches, 0u);
        EXPECT_EQ(v.protocol.delivered, kCount);
    }

    // Aggregate protocol view sums the per-session counters.
    EXPECT_EQ(server.protocol_metrics().delivered, kCount * kSessions);
    // Egress went through the shared socket as addressed batches.
    const Metrics transport = server.transport_metrics();
    EXPECT_GT(transport.datagrams_sent, 0u);
    EXPECT_GE(transport.datagrams_received, kCount * kSessions);
}

TEST(Server, ProtocolMetricsSumEveryDuplexSession) {
    // Duplex sessions originate data too (session.count > 0), so every
    // sending-side counter must sum across sessions, not only the
    // receiving-side ones.
    ManualClock clock;
    InprocHub hub;
    constexpr Seq kCount = 20;
    constexpr std::size_t kSessions = 3;
    ServerConfig scfg = server_config();
    scfg.session.count = kCount;
    Server<Core> server(scfg, {}, clock, {&hub.server()});

    std::vector<Client> clients;
    for (std::size_t i = 0; i < kSessions; ++i) {
        NetConfig cfg = client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1});
        cfg.rx_count = kCount;
        clients.push_back(make_client(hub, clock, cfg));
    }
    drive(clock, server, raw(clients));

    for (Client& c : clients) EXPECT_TRUE(c.sender->done());
    ASSERT_EQ(server.session_count(), kSessions);
    const sim::Metrics total = server.protocol_metrics();
    EXPECT_EQ(total.data_new, kSessions * kCount);
    EXPECT_EQ(total.delivered, kSessions * kCount);
    std::uint64_t acks_received = 0;
    for (const SessionView& v : server.sessions()) acks_received += v.protocol.acks_received;
    EXPECT_EQ(total.acks_received, acks_received);
}

TEST(Server, UntaggedV1PeerMapsToConnZeroAndGetsV1Replies) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // Default NetConfig: untagged frames, the pre-multiplexing wire format.
    std::vector<Client> clients;
    clients.push_back(make_client(hub, clock, client_config(12)));

    drive(clock, server, raw(clients));

    EXPECT_TRUE(clients[0].sender->done());  // acks decoded fine => v1 round trip
    ASSERT_EQ(server.session_count(), 1u);
    const std::vector<SessionView> views = server.sessions();
    EXPECT_EQ(views[0].conn, 0u);
    EXPECT_EQ(views[0].epoch, 0u);
    EXPECT_EQ(views[0].delivered, 12u);
}

TEST(Server, EpochBumpResetsSessionAndStaleEpochFramesDrop) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // First incarnation: conn 7, epoch 1.
    Client a = make_client(hub, clock, client_config(10, wire::Conn{7, 1}));
    drive(clock, server, {&a});
    ASSERT_TRUE(a.sender->done());
    ASSERT_EQ(server.sessions()[0].delivered, 10u);

    // "Restart" the peer: same transport (same source address), fresh
    // sender with a bumped epoch.  Without the reset, its seq 0..4 would
    // be swallowed as duplicates of the first incarnation.
    a.sender.reset();
    a.wheel = std::make_unique<TimerWheel>(clock);
    a.sender = std::make_unique<NetEndpoint<Core>>(client_config(5, wire::Conn{7, 2}),
                                                 typename Core::Options{}, *a.wheel,
                                                 *a.transport);
    a.sender->start();
    drive(clock, server, {&a});
    EXPECT_TRUE(a.sender->done());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.sessions_reset, 1u);
    ASSERT_EQ(server.session_count(), 1u);
    const SessionView view = server.sessions()[0];
    EXPECT_EQ(view.conn, 7u);
    EXPECT_EQ(view.epoch, 2u);
    EXPECT_EQ(view.delivered, 5u);  // fresh driver state, not 10 + 5

    // A late frame from the dead incarnation must be dropped, not fed to
    // the new driver as a duplicate.
    inject_data(*a.transport, 0, wire::Conn{7, 1});
    server.poll();
    EXPECT_EQ(server.stats().stale_epoch_drops, 1u);
    EXPECT_EQ(server.sessions()[0].delivered, 5u);
}

TEST(Server, MidWindowCrashThenEpochRejoinDeliversExactlyOnce) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    // First incarnation: conn 9, epoch 1, intends 24 messages but dies
    // mid-window -- un-acked frames still in flight, all soft state gone.
    Client a = make_client(hub, clock, client_config(24, wire::Conn{9, 1}));
    std::vector<const TimerWheel*> wheels = {a.wheel.get()};
    for (std::size_t i = 0; i < server.shard_count(); ++i) wheels.push_back(&server.shard_wheel(i));
    while (server.protocol_metrics().delivered < 12) {
        for (;;) {
            const std::size_t work = server.poll() + a.sender->poll();
            if (work == 0 || server.protocol_metrics().delivered >= 12) break;
        }
        if (server.protocol_metrics().delivered >= 12) break;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        ASSERT_TRUE(next.has_value());
        clock.advance_to(*next);
    }
    ASSERT_FALSE(a.sender->done());  // the cut landed mid-transfer

    // The crash keeps the transport (same source address), so whatever
    // the dead incarnation still had in the fabric stays there for the
    // server's stale-epoch filter.
    a.sender.reset();
    a.wheel = std::make_unique<TimerWheel>(clock);
    a.sender = std::make_unique<NetEndpoint<Core>>(client_config(16, wire::Conn{9, 2}),
                                                 typename Core::Options{}, *a.wheel,
                                                 *a.transport);
    a.sender->start();
    drive(clock, server, {&a});
    EXPECT_TRUE(a.sender->done());

    // Rejoin was an in-place reset, not a second session, and the second
    // incarnation's transfer is exactly-once: its own 16, no duplicates
    // carried over, byte-verified payloads.
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.sessions_reset, 1u);
    ASSERT_EQ(server.session_count(), 1u);
    const SessionView view = server.sessions()[0];
    EXPECT_EQ(view.conn, 9u);
    EXPECT_EQ(view.epoch, 2u);
    EXPECT_EQ(view.delivered, 16u);
    EXPECT_EQ(view.payload_mismatches, 0u);
}

// An epoch reset drains the old incarnation's egress counters into the
// shard and counts the new incarnation's sends from zero, so every
// datagram the shard sent is counted once across the live and drained
// session totals: merged_metrics() (shard socket + sessions) reads twice
// the socket's sends, and the live view only what the new incarnation
// sent.
TEST(Server, EpochResetCountsEachSessionSendOnce) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    Client a = make_client(hub, clock, client_config(10, wire::Conn{7, 1}));
    drive(clock, server, {&a});
    ASSERT_TRUE(a.sender->done());
    const Metrics first = server.sessions()[0].transport;
    ASSERT_GT(first.datagrams_sent, 0u);
    ASSERT_EQ(first.datagrams_sent, server.transport_metrics().datagrams_sent);

    a.sender.reset();
    a.wheel = std::make_unique<TimerWheel>(clock);
    a.sender = std::make_unique<NetEndpoint<Core>>(client_config(5, wire::Conn{7, 2}),
                                                 typename Core::Options{}, *a.wheel,
                                                 *a.transport);
    a.sender->start();
    drive(clock, server, {&a});
    ASSERT_TRUE(a.sender->done());
    ASSERT_EQ(server.stats().sessions_reset, 1u);

    const Metrics socket = server.transport_metrics();
    const Metrics live = server.sessions()[0].transport;
    EXPECT_GT(live.datagrams_sent, 0u);
    EXPECT_EQ(live.datagrams_sent, socket.datagrams_sent - first.datagrams_sent);
    EXPECT_EQ(live.bytes_sent, socket.bytes_sent - first.bytes_sent);
    const Metrics merged = server.merged_metrics();
    EXPECT_EQ(merged.datagrams_sent, 2 * socket.datagrams_sent);
    EXPECT_EQ(merged.bytes_sent, 2 * socket.bytes_sent);
}

TEST(Server, IdleEvictionCancelsAllSessionTimers) {
    ServerConfig cfg = server_config();
    cfg.idle_timeout = 100 * kMillisecond;
    cfg.sweep_interval = 50 * kMillisecond;
    // Park the ack far in the future so each session holds a live flush
    // timer on the shard wheel when the sweep hits it.
    cfg.session.ack_policy = runtime::AckPolicy::delayed(10 * kSecond);

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});

    std::vector<Client> clients;
    for (Seq id = 1; id <= 3; ++id) {
        clients.push_back(make_client(hub, clock, client_config(100, wire::Conn{id, 1})));
    }
    // One drain at t=0: sessions open, data lands, flush timers arm.
    while (server.poll() + clients[0].sender->poll() + clients[1].sender->poll() +
               clients[2].sender->poll() >
           0) {
    }
    ASSERT_EQ(server.session_count(), 3u);
    ASSERT_GT(server.shard_wheel(0).armed(), 0u);

    // Silence past the idle horizon; the sweep must tear the sessions
    // down and their destructors must leave the wheel empty -- an evicted
    // session may never fire a timer into freed state.
    clock.advance(200 * kMillisecond);
    server.poll();
    EXPECT_EQ(server.session_count(), 0u);
    EXPECT_EQ(server.stats().sessions_evicted, 3u);
    EXPECT_EQ(server.shard_wheel(0).armed(), 0u);
}

TEST(Server, RejectsSessionsBeyondCapacity) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 2;
    cfg.evict_on_pressure = false;  // shed, don't evict

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});

    std::vector<Client> clients;
    for (Seq id = 1; id <= 3; ++id) {
        clients.push_back(make_client(hub, clock, client_config(8, wire::Conn{id, 1})));
    }
    drive(clock, server, raw(clients), /*deadline=*/2 * kSecond);

    EXPECT_TRUE(clients[0].sender->done());
    EXPECT_TRUE(clients[1].sender->done());
    EXPECT_FALSE(clients[2].sender->done());  // shed, never opened
    EXPECT_EQ(server.session_count(), 2u);
    EXPECT_GT(server.stats().sessions_rejected, 0u);
}

TEST(Server, PressureEvictsLeastRecentlyActiveSession) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 2;  // evict_on_pressure stays at its true default

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> a = hub.make_client();
    const std::unique_ptr<Transport> b = hub.make_client();
    const std::unique_ptr<Transport> c = hub.make_client();

    // Stagger activity so recency is unambiguous: a is the oldest.
    inject_data(*a, 1, wire::Conn{1, 1});
    server.poll();
    clock.advance(10 * kMillisecond);
    inject_data(*b, 1, wire::Conn{2, 1});
    server.poll();
    clock.advance(10 * kMillisecond);
    inject_data(*c, 1, wire::Conn{3, 1});
    server.poll();

    EXPECT_EQ(server.session_count(), 2u);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.sessions_opened, 3u);
    EXPECT_EQ(stats.sessions_pressure_evicted, 1u);
    EXPECT_EQ(stats.sessions_rejected, 0u);
    // The victim was the least recently active (conn 1); 2 and 3 remain.
    std::vector<Seq> conns;
    for (const SessionView& v : server.sessions()) conns.push_back(v.conn);
    std::sort(conns.begin(), conns.end());
    EXPECT_EQ(conns, (std::vector<Seq>{2, 3}));
    // Eviction cancelled the victim's timers; no stale closure can fire.
    clock.advance(10 * kSecond);
    server.poll();
}

TEST(Server, ArenaBudgetCapsSessionsBelowMaxSessions) {
    ServerConfig cfg = server_config();
    cfg.max_sessions = 1 << 16;
    cfg.arena_budget = 1;  // floor: budget always admits at least one

    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    EXPECT_EQ(server.session_cap(), 1u);

    const std::unique_ptr<Transport> a = hub.make_client();
    const std::unique_ptr<Transport> b = hub.make_client();
    inject_data(*a, 1, wire::Conn{1, 1});
    server.poll();
    clock.advance(kMillisecond);
    inject_data(*b, 1, wire::Conn{2, 1});
    server.poll();

    EXPECT_EQ(server.session_count(), 1u);
    EXPECT_EQ(server.stats().sessions_pressure_evicted, 1u);

    // No budget: the cap is max_sessions itself.
    Server<Core> uncapped(server_config(), {}, clock, {&hub.server()});
    EXPECT_EQ(uncapped.session_cap(), ServerConfig{}.max_sessions);
}

TEST(ClientFleet, ManySessionsOverFewSocketsCompleteWithinAdmissionWindow) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});

    FleetConfig fcfg;
    fcfg.session = client_config(12);
    fcfg.sessions = 24;
    fcfg.max_active = 8;

    const std::unique_ptr<Transport> s0 = hub.make_client();
    const std::unique_ptr<Transport> s1 = hub.make_client();
    const std::unique_ptr<Transport> s2 = hub.make_client();
    ClientFleet<Core> fleet(fcfg, {}, clock, {s0.get(), s1.get(), s2.get()});

    std::vector<const TimerWheel*> wheels = {&fleet.wheel()};
    for (std::size_t i = 0; i < server.shard_count(); ++i) wheels.push_back(&server.shard_wheel(i));
    std::size_t max_active_seen = 0;
    while (!fleet.done()) {
        for (;;) {
            const std::size_t work = server.poll() + fleet.poll();
            max_active_seen = std::max(max_active_seen, fleet.active_count());
            if (work == 0) break;
        }
        if (fleet.done()) break;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        ASSERT_TRUE(next) << "fleet stalled with no armed deadline";
        ASSERT_LT(*next, 120 * kSecond);
        clock.advance_to(*next);
    }

    const FleetStats& stats = fleet.stats();
    EXPECT_EQ(stats.sessions_started, 24u);
    EXPECT_EQ(fleet.finished_count(), 24u);
    EXPECT_LE(max_active_seen, 8u);  // the ramp never exceeds the window
    EXPECT_EQ(stats.decode_errors, 0u);
    EXPECT_EQ(stats.unknown_conn_drops, 0u);

    // Every session landed, demuxed, and delivered fully at the server.
    EXPECT_EQ(server.stats().sessions_opened, 24u);
    EXPECT_EQ(server.session_count(), 24u);
    for (const SessionView& v : server.sessions()) {
        EXPECT_EQ(v.delivered, 12u);
        EXPECT_EQ(v.payload_mismatches, 0u);
    }
}

TEST(Server, SocketOwningConstructorBindsConfiguredShards) {
    ServerConfig cfg = server_config();
    cfg.shards = 2;
    cfg.port = 0;  // ephemeral

    SteadyClock clock;
    Server<Core> server(cfg, {}, clock);
    EXPECT_EQ(server.shard_count(), 2u);
    EXPECT_NE(server.port(), 0u);
    EXPECT_EQ(server.session_count(), 0u);
    server.poll();  // sockets are live and non-blocking
}

TEST(Server, CountsDecodeAndCrcErrorsAtDemux) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> t = hub.make_client();

    // Garbage bytes: a decode error that is not a CRC error.
    const std::uint8_t garbage[] = {0x00, 0x01, 0x02};
    const std::span<const std::uint8_t> gbatch[] = {std::span<const std::uint8_t>{garbage}};
    t->send_batch(gbatch);
    // A valid frame with one payload byte flipped: a CRC error.
    std::vector<std::uint8_t> frame;
    const std::uint8_t payload[] = {9, 9, 9, 9};
    wire::encode_data_to(frame, 0, payload, wire::kFlagNone, wire::kNoStream,
                         wire::Conn{1, 1});
    frame[frame.size() / 2] ^= 0xFF;
    const std::span<const std::uint8_t> fbatch[] = {std::span<const std::uint8_t>{frame}};
    t->send_batch(fbatch);

    server.poll();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.decode_errors, 2u);
    EXPECT_EQ(stats.crc_errors, 1u);
    EXPECT_EQ(server.session_count(), 0u);  // neither datagram opened a session
}

TEST(Server, MalformedConnTagVarintsCountAsDecodeErrorsNotSessions) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    const std::unique_ptr<Transport> t = hub.make_client();

    // Hand-assembled v2 frames whose trailing CRC is *valid*, so they
    // die in the conn-tag varint parser, not at the integrity check: a
    // truncated tag, an overlong (11-byte) varint, and the reserved
    // untagged sentinel as a conn id.  Each is a decode error; none may
    // open a session.
    const auto v2_frame = [](std::span<const std::uint8_t> tag) {
        std::vector<std::uint8_t> out;
        wire::BufWriter writer(out);
        writer.put_u8(wire::kMagic);
        writer.put_u8(wire::kVersion2);
        writer.put_u8(static_cast<std::uint8_t>(wire::FrameType::Data));
        writer.put_u8(wire::kFlagNone);
        writer.put_bytes(tag);
        writer.put_varint(0);  // seq
        writer.put_varint(0);  // empty payload
        const std::uint32_t crc =
            wire::crc32c(std::span<const std::uint8_t>(out.data(), out.size()));
        writer.put_u32(crc);
        return out;
    };
    const std::uint8_t truncated[] = {0x91};
    std::vector<std::uint8_t> overlong(11, 0x80);
    overlong.push_back(0x01);
    overlong.push_back(0x00);
    std::vector<std::uint8_t> sentinel;
    {
        wire::BufWriter w(sentinel);
        w.put_varint(wire::kNoConnId);
        w.put_varint(1);
    }
    for (const auto& frame : {v2_frame(truncated), v2_frame(overlong), v2_frame(sentinel)}) {
        const std::span<const std::uint8_t> batch[] = {std::span<const std::uint8_t>{frame}};
        t->send_batch(batch);
    }

    server.poll();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.decode_errors, 3u);
    EXPECT_EQ(stats.crc_errors, 0u);  // the CRCs were fine; the tags were not
    EXPECT_EQ(server.session_count(), 0u);
    EXPECT_EQ(stats.sessions_opened, 0u);
}

TEST(Server, ToJsonCarriesServerTransportAndSessionViews) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(server_config(), {}, clock, {&hub.server()});
    std::vector<Client> clients;
    clients.push_back(make_client(hub, clock, client_config(6, wire::Conn{3, 1})));
    drive(clock, server, raw(clients));

    const std::string json = server.to_json();
    EXPECT_NE(json.find("\"server\":"), std::string::npos);
    EXPECT_NE(json.find("\"sessions_opened\":1"), std::string::npos);
    EXPECT_NE(json.find("\"transport\":"), std::string::npos);
    EXPECT_NE(json.find("\"sessions\":[{"), std::string::npos);
    EXPECT_NE(json.find("\"conn\":3"), std::string::npos);
    EXPECT_NE(json.find("\"delivered\":6"), std::string::npos);
}

// ---- per-session impairment seeding ------------------------------------

/// A session embedded among others must behave exactly like the same
/// session running alone: its impairer draws from mix_seed(base, conn),
/// not from a shared stream another session's traffic could perturb.
TEST(Server, ImpairmentSeedEquivalentToSingleSessionRun) {
    const auto run_session_metrics = [](const ImpairSpec& impair, const std::vector<Seq>& conns,
                                        Seq probe) {
        ServerConfig cfg = server_config();
        cfg.impair = impair;
        ManualClock clock;
        InprocHub hub;
        Server<Core> server(cfg, {}, clock, {&hub.server()});
        std::vector<Client> clients;
        for (const Seq conn : conns) {
            clients.push_back(make_client(hub, clock, client_config(20, wire::Conn{conn, 1})));
        }
        drive(clock, server, raw(clients));
        for (Client& c : clients) EXPECT_TRUE(c.sender->done());
        for (const SessionView& v : server.sessions()) {
            EXPECT_EQ(v.payload_mismatches, 0u);
        }
        for (const SessionView& v : server.sessions()) {
            if (v.conn == probe) return std::make_pair(v.protocol, v.transport);
        }
        ADD_FAILURE() << "probe session missing";
        return std::make_pair(sim::Metrics{}, Metrics{});
    };

    // Ack-direction loss forces retransmits; the lossy adversary also
    // delays, duplicates and reorders, so copies mature on the shard
    // wheel and leave through poll_shard's impaired-session flush.
    ImpairSpec loss_only;
    loss_only.loss = 0.25;
    for (const ImpairSpec& impair : {loss_only, ImpairSpec::lossy(0.1)}) {
        const auto [multi_proto, multi_transport] = run_session_metrics(impair, {5, 9, 14}, 9);
        const auto [solo_proto, solo_transport] = run_session_metrics(impair, {9}, 9);

        EXPECT_EQ(multi_proto.to_json(), solo_proto.to_json());
        EXPECT_EQ(multi_transport.to_json(), solo_transport.to_json());
        EXPECT_GT(multi_transport.dropped, 0u);  // the adversary did bite
        if (impair.delay_hi > 0) {
            EXPECT_GT(multi_transport.delayed, 0u);
        }
    }
}

// A delayed copy leaves the shard when it matures (poll_shard flushes
// the impaired sessions right after fire_due), not when its session next
// sends: a sink session whose one block ack is delayed must still let
// its client finish without a retransmission.
TEST(Server, DelayedAckCopiesLeaveWhenTheyMature) {
    ServerConfig cfg = server_config();
    cfg.impair.delay_lo = 5 * kMillisecond;
    cfg.impair.delay_hi = 5 * kMillisecond;
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(cfg, {}, clock, {&hub.server()});
    std::vector<Client> clients;
    clients.push_back(make_client(hub, clock, client_config(4, wire::Conn{1, 1})));
    drive(clock, server, raw(clients));
    EXPECT_TRUE(clients[0].sender->done());
    EXPECT_EQ(clients[0].sender->metrics().data_retx, 0u);
    EXPECT_GT(server.merged_metrics().delayed, 0u);
}

// ---- shard egress, byte for byte ---------------------------------------

/// The hub's server endpoint with a recorder on its sends: an FNV-1a
/// digest of every datagram the shard sends (its peer, its length, its
/// bytes), chained in send order.
class EgressDigest final : public AddressedTransport {
public:
    explicit EgressDigest(AddressedTransport& inner) : inner_(&inner) {}

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override {
        return inner_->send_batch(datagrams);
    }
    std::size_t send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                              std::span<const PeerAddr> peers) override {
        for (std::size_t i = 0; i < datagrams.size(); ++i) {
            mix(peers[i].key());
            mix(datagrams[i].size());
            for (const std::uint8_t byte : datagrams[i]) mix_byte(byte);
            ++datagrams_;
        }
        return inner_->send_batch_to(datagrams, peers);
    }
    std::size_t recv_batch(RecvBatch& batch) override { return inner_->recv_batch(batch); }

    std::uint64_t digest() const { return digest_; }
    std::uint64_t datagrams() const { return datagrams_; }

private:
    void mix_byte(std::uint8_t byte) { digest_ = (digest_ ^ byte) * 0x100000001b3ULL; }
    void mix(std::uint64_t word) {
        for (int b = 0; b < 8; ++b) mix_byte(static_cast<std::uint8_t>(word >> (8 * b)));
    }

    AddressedTransport* inner_;
    std::uint64_t digest_ = 0xcbf29ce484222325ULL;
    std::uint64_t datagrams_ = 0;
};

/// Every datagram two shards send, under \p impair: a sink shard serving
/// three tagged clients and one v1 client, then a duplex shard whose four
/// sessions originate data back with acks riding it.  One recorder runs
/// through both, so the digest pins their egress in order.
std::pair<std::uint64_t, std::uint64_t> shard_egress(const ImpairSpec& impair) {
    std::uint64_t digest = 0;
    std::uint64_t datagrams = 0;
    for (const bool duplex : {false, true}) {
        ServerConfig cfg = server_config();
        cfg.impair = impair;
        if (duplex) {
            cfg.session.count = 12;
            cfg.session.piggyback = true;
        }
        ManualClock clock;
        InprocHub hub;
        EgressDigest tap(hub.server());
        Server<Core> server(cfg, {}, clock, {&tap});
        std::vector<Client> clients;
        for (Seq id = 1; id <= 4; ++id) {
            NetConfig ccfg = client_config(20 + 3 * id, wire::Conn{id, 1});
            if (!duplex && id == 4) ccfg.conn = wire::Conn{};  // a v1 peer
            if (duplex) {
                ccfg.rx_count = 12;
                ccfg.piggyback = true;
            }
            clients.push_back(make_client(hub, clock, ccfg));
        }
        drive(clock, server, raw(clients));
        for (Client& c : clients) EXPECT_TRUE(c.sender->done());
        for (const SessionView& v : server.sessions()) EXPECT_EQ(v.payload_mismatches, 0u);
        digest = digest * 31 + tap.digest();
        datagrams += tap.datagrams();
    }
    return {digest, datagrams};
}

// The shard's egress, datagram by datagram, recorded before server
// sessions staged their frames straight onto the shard batch (they went
// through a per-session slab and egress object then).  The unimpaired
// run must never move; the impaired one pins the Impairer's draw order
// and the moment each matured copy leaves.
TEST(Server, ShardEgressIsPinnedByteForByte) {
    const auto [clean, clean_count] = shard_egress(ImpairSpec{});
    EXPECT_EQ(clean, 0xcd875f1efd4a64e0ULL) << std::hex << clean;
    EXPECT_EQ(clean_count, 106u);
    const auto [lossy, lossy_count] = shard_egress(ImpairSpec::lossy(0.1));
    EXPECT_EQ(lossy, 0x95f60c1341621d12ULL) << std::hex << lossy;
    EXPECT_EQ(lossy_count, 158u);
}

// ---- threaded shard loops ----------------------------------------------

// Real sockets, real threads: two reuseport shards each driven by their
// own run_threads() loop while the main thread polls four UDP clients.
// This is the test the TSan job leans on -- the shard loops, the shared
// SteadyClock, and the stop flag must all be race-clean.
TEST(Server, RunThreadsServesRealUdpClients) {
    constexpr Seq kCount = 64;
    constexpr std::size_t kClients = 4;

    SteadyClock clock;
    auto [shard_sockets, port] = make_reuseport_shards(0, 2);
    std::vector<AddressedTransport*> shard_ptrs;
    for (const auto& s : shard_sockets) shard_ptrs.push_back(s.get());

    ServerConfig scfg = server_config();
    // A generous explicit timeout: the derived default (~2x the link
    // lifetime) sits below thread-scheduling latency and would turn the
    // whole run into spurious retransmissions.
    scfg.session.link_lifetime = 1 * kMillisecond;
    scfg.session.timeout = 100 * kMillisecond;
    Server<Core> server(scfg, {}, clock, shard_ptrs);

    // RAII stop/join: if anything below throws (a BACP_ASSERT in a
    // client poll, a gtest ASSERT returning early), the server threads
    // are still wound down before the std::thread is destroyed --
    // otherwise the joinable destructor terminates the process and eats
    // the actual failure message.
    struct ServerRun {
        std::atomic<bool> stop{false};
        std::thread thread;
        explicit ServerRun(Server<Core>& server)
            : thread([this, &server] { server.run_threads(stop); }) {}
        ~ServerRun() {
            stop.store(true);
            if (thread.joinable()) thread.join();
        }
    } srv(server);

    struct UdpClient {
        std::unique_ptr<UdpTransport> transport;
        std::unique_ptr<TimerWheel> wheel;
        std::unique_ptr<NetEndpoint<Core>> sender;
    };
    std::vector<UdpClient> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
        NetConfig cfg = client_config(kCount, wire::Conn{static_cast<Seq>(i + 1), 1});
        cfg.link_lifetime = 1 * kMillisecond;
        cfg.timeout = 100 * kMillisecond;
        UdpClient c;
        c.transport = std::make_unique<UdpTransport>();
        c.transport->connect_peer(port);
        c.wheel = std::make_unique<TimerWheel>(clock);
        c.sender = std::make_unique<NetEndpoint<Core>>(cfg, typename Core::Options{},
                                                     *c.wheel, *c.transport);
        clients.push_back(std::move(c));
    }
    int client_fds[kClients];
    for (std::size_t i = 0; i < kClients; ++i) client_fds[i] = clients[i].transport->fd();
    for (UdpClient& c : clients) c.sender->start();

    const SimTime deadline = clock.now() + 30 * kSecond;
    for (;;) {
        std::size_t done = 0;
        std::size_t work = 0;
        for (UdpClient& c : clients) {
            work += c.sender->poll();
            if (c.sender->done()) ++done;
        }
        if (done == clients.size()) break;
        ASSERT_LT(clock.now(), deadline) << "threaded transfer did not complete";
        if (work == 0) wait_readable(client_fds, kMillisecond);
    }
    srv.stop.store(true);
    srv.thread.join();

    EXPECT_EQ(server.stats().sessions_opened, kClients);
    EXPECT_EQ(server.session_count(), kClients);
    const sim::Metrics proto = server.protocol_metrics();
    EXPECT_EQ(proto.delivered, static_cast<std::uint64_t>(kClients) * kCount);
    for (UdpClient& c : clients) {
        EXPECT_EQ(c.sender->metrics().ack_latency.count(), kCount);
    }
}

// ---- PayloadStash ------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::initializer_list<std::uint8_t> init) {
    return std::vector<std::uint8_t>(init);
}

TEST(PayloadStash, PutFindEraseRoundTrip) {
    PayloadStash stash;
    EXPECT_TRUE(stash.empty());
    EXPECT_EQ(stash.find(3), nullptr);

    stash.put(3, bytes_of({1, 2, 3}));
    stash.put(4, bytes_of({4}));
    EXPECT_EQ(stash.size(), 2u);
    ASSERT_NE(stash.find(3), nullptr);
    EXPECT_EQ(*stash.find(3), bytes_of({1, 2, 3}));
    ASSERT_NE(stash.find(4), nullptr);
    EXPECT_EQ(*stash.find(4), bytes_of({4}));

    EXPECT_TRUE(stash.erase(3));
    EXPECT_EQ(stash.find(3), nullptr);
    EXPECT_FALSE(stash.erase(3));  // already gone
    EXPECT_EQ(stash.size(), 1u);
}

TEST(PayloadStash, SameKeyOverwritesLatestWins) {
    PayloadStash stash;
    stash.put(7, bytes_of({1}));
    stash.put(7, bytes_of({2, 2}));
    EXPECT_EQ(stash.size(), 1u);
    EXPECT_EQ(*stash.find(7), bytes_of({2, 2}));
}

TEST(PayloadStash, CollidingKeysSurviveBackwardShiftDeletion) {
    PayloadStash stash(4);  // capacity 8: keys k and k+8 share a home slot
    const std::size_t cap = stash.capacity();
    // Three keys homed on the same slot, forcing a probe chain.
    const Seq a = 1, b = 1 + cap, c = 1 + 2 * cap;
    stash.put(a, bytes_of({0xA}));
    stash.put(b, bytes_of({0xB}));
    stash.put(c, bytes_of({0xC}));
    // Deleting the chain head must keep the displaced entries findable.
    EXPECT_TRUE(stash.erase(a));
    ASSERT_NE(stash.find(b), nullptr);
    EXPECT_EQ(*stash.find(b), bytes_of({0xB}));
    ASSERT_NE(stash.find(c), nullptr);
    EXPECT_EQ(*stash.find(c), bytes_of({0xC}));
    // And the middle of the chain.
    stash.put(a, bytes_of({0xA}));
    EXPECT_TRUE(stash.erase(b));
    EXPECT_EQ(*stash.find(a), bytes_of({0xA}));
    EXPECT_EQ(*stash.find(c), bytes_of({0xC}));
    EXPECT_EQ(stash.find(b), nullptr);
}

TEST(PayloadStash, GrowsPastInitialCapacity) {
    PayloadStash stash(2);
    const std::size_t initial = stash.capacity();
    for (Seq k = 0; k < 64; ++k) stash.put(k, bytes_of({static_cast<std::uint8_t>(k)}));
    EXPECT_GT(stash.capacity(), initial);
    EXPECT_EQ(stash.size(), 64u);
    for (Seq k = 0; k < 64; ++k) {
        ASSERT_NE(stash.find(k), nullptr) << k;
        EXPECT_EQ(stash.find(k)->at(0), static_cast<std::uint8_t>(k));
    }
}

TEST(PayloadStash, RandomOpsAgreeWithUnorderedMapOracle) {
    PayloadStash stash(8);
    std::unordered_map<Seq, std::vector<std::uint8_t>> oracle;
    std::mt19937_64 rng(0xBACBAC);
    // Keys clustered in a small range so collisions and probe chains are
    // constant, plus occasional far keys exercising wraparound homes.
    for (int op = 0; op < 20000; ++op) {
        const Seq key = (rng() % 64 == 0) ? static_cast<Seq>(rng())
                                          : static_cast<Seq>(rng() % 48);
        switch (rng() % 3) {
            case 0: {
                std::vector<std::uint8_t> payload(rng() % 16);
                for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
                stash.put(key, payload);
                oracle[key] = std::move(payload);
                break;
            }
            case 1: {
                const auto* got = stash.find(key);
                const auto it = oracle.find(key);
                if (it == oracle.end()) {
                    ASSERT_EQ(got, nullptr) << "op " << op << " key " << key;
                } else {
                    ASSERT_NE(got, nullptr) << "op " << op << " key " << key;
                    ASSERT_EQ(*got, it->second) << "op " << op << " key " << key;
                }
                break;
            }
            default:
                ASSERT_EQ(stash.erase(key), oracle.erase(key) > 0)
                    << "op " << op << " key " << key;
                break;
        }
        ASSERT_EQ(stash.size(), oracle.size());
    }
}

// ---- TimerWheel under multi-session churn ------------------------------

/// Thousands of timers from many "sessions" scheduled, cancelled in
/// blocks (eviction), and fired in bursts must match a multimap oracle's
/// deadline-then-FIFO order exactly.
TEST(TimerWheel, MultiSessionChurnMatchesMultimapOracle) {
    ManualClock clock;
    TimerWheel wheel(clock);

    struct OracleEntry {
        int token;
        TimerId id;
    };
    std::multimap<SimTime, OracleEntry> oracle;  // equal keys keep insert order
    std::vector<int> fired;
    std::vector<int> expected;
    std::mt19937_64 rng(0x5E55104);

    constexpr int kSessions = 40;
    std::vector<std::vector<std::pair<int, TimerId>>> per_session(kSessions);

    int next_token = 0;
    const auto schedule_one = [&](int session) {
        const SimTime delay = static_cast<SimTime>(rng() % 5000);
        const int token = next_token++;
        const TimerId id =
            wheel.schedule_after(delay, [&fired, token] { fired.push_back(token); });
        oracle.emplace(clock.now() + delay, OracleEntry{token, id});
        per_session[session].push_back({token, id});
    };

    for (int round = 0; round < 200; ++round) {
        // Churn: a few new timers on random sessions.
        for (int i = 0; i < 10; ++i) schedule_one(static_cast<int>(rng() % kSessions));
        // Occasionally evict a session: cancel everything it owns.
        if (round % 7 == 3) {
            const int victim = static_cast<int>(rng() % kSessions);
            for (const auto& [token, id] : per_session[victim]) {
                wheel.cancel(id);
                for (auto it = oracle.begin(); it != oracle.end(); ++it) {
                    if (it->second.token == token) {
                        oracle.erase(it);
                        break;
                    }
                }
            }
            per_session[victim].clear();
        }
        // Advance and fire; the oracle pops everything due in key order
        // (multimap preserves insertion order among equal deadlines --
        // the FIFO tiebreak the wheel guarantees).
        clock.advance(static_cast<SimTime>(rng() % 700));
        while (!oracle.empty() && oracle.begin()->first <= clock.now()) {
            expected.push_back(oracle.begin()->second.token);
            oracle.erase(oracle.begin());
        }
        wheel.fire_due();
        ASSERT_EQ(fired, expected) << "round " << round;
    }
    EXPECT_EQ(wheel.armed(), oracle.size());
}

}  // namespace
}  // namespace bacp::net
