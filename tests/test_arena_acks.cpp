// One block ack per session per receive arena.  A Server shard and a
// ClientFleet hand a whole arena of datagrams to their sessions before
// one flush, so a session's immediate action 5 waits for the arena's end
// (runtime::AckBatch) and its DATA of that arena leave acknowledged by
// one block.  Server + ClientFleet on InprocHub + ManualClock replay
// exactly, so the ACK frames on the wire are pinned one by one: the
// block a two-DATA arena earns, the split a session straddling two
// arenas gets, the totals of a longer run, and what becomes of a held
// ack whose session is torn down before the arena ends.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ba/engine_core.hpp"
#include "net/client_fleet.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"

namespace bacp::net {
namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

/// One ACK frame as it crossed the wire.
struct AckFrame {
    wire::Conn conn;
    Seq lo = 0;
    Seq hi = 0;

    friend bool operator==(const AckFrame&, const AckFrame&) = default;
};

/// A client socket that records every ACK frame it receives.
class AckTap final : public Transport {
public:
    explicit AckTap(std::unique_ptr<Transport> inner) : inner_(std::move(inner)) {}

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override {
        return inner_->send_batch(datagrams);
    }

    std::size_t recv_batch(RecvBatch& batch) override {
        const std::size_t n = inner_->recv_batch(batch);
        for (std::size_t i = 0; i < n; ++i) {
            const wire::ViewResult v = wire::decode_view(batch[i]);
            if (v.ok() && v.frame().type == wire::FrameType::Ack) {
                acks.push_back(AckFrame{v.frame().conn, v.frame().lo, v.frame().hi});
            }
        }
        return n;
    }

    std::vector<AckFrame> acks;

private:
    std::unique_ptr<Transport> inner_;
};

NetConfig fleet_shape() {
    NetConfig cfg;
    cfg.w = 2;
    cfg.payload_size = 32;
    cfg.max_datagram = 32 + 128;
    cfg.link_lifetime = kMillisecond;
    cfg.timeout = kSecond;
    cfg.seed = 5;
    return cfg;
}

/// A sink server on the hub's one shard, \p recv_batch datagrams per arena.
ServerConfig sink_server(Seq messages, std::size_t recv_batch) {
    ServerConfig cfg;
    cfg.session = fleet_shape();
    cfg.session.count = 0;
    cfg.session.rx_count = messages;
    cfg.recv_batch = recv_batch;
    cfg.idle_timeout = 600 * kSecond;
    return cfg;
}

FleetConfig fleet_config(std::size_t sessions, Seq messages) {
    FleetConfig cfg;
    cfg.session = fleet_shape();
    cfg.session.count = messages;
    cfg.sessions = sessions;
    return cfg;
}

/// Polls fleet and server until neither has work at this instant, then
/// jumps the clock to the earliest deadline, until the fleet is done or
/// 60 s of clock time have passed.
void drive(ManualClock& clock, ClientFleet<Core>& fleet, Server<Core>& server) {
    const TimerWheel* const wheels[] = {&fleet.wheel(), &server.shard_wheel(0)};
    while (!fleet.done()) {
        while (fleet.poll() + server.poll() > 0) {
        }
        if (fleet.done()) break;
        const std::optional<SimTime> next = earliest_deadline(wheels);
        if (!next || *next > 60 * kSecond) break;
        clock.advance_to(*next);
    }
}

struct Rig {
    Rig(const ServerConfig& scfg, const FleetConfig& fcfg)
        : hub(4096, 8192),
          server(scfg, {}, clock, {&hub.server()}),
          tap(std::make_unique<AckTap>(hub.make_client())),
          fleet(std::make_unique<ClientFleet<Core>>(fcfg, Core::Options{}, clock,
                                                    std::vector<Transport*>{tap.get()})) {}

    ManualClock clock;
    InprocHub hub;
    Server<Core> server;
    std::unique_ptr<AckTap> tap;
    std::unique_ptr<ClientFleet<Core>> fleet;
};

// ---- golden ACK frames --------------------------------------------------

TEST(ArenaAcks, TwoDataInOneArenaEarnOneBlockAck) {
    Rig rig(sink_server(2, 64), fleet_config(1, 2));
    rig.fleet->poll();  // admits the session: DATA 0 and 1 leave together
    rig.server.poll();  // one arena holds both
    rig.fleet->poll();
    const std::vector<AckFrame> expected = {{wire::Conn{1, 1}, 0, 1}};
    EXPECT_EQ(rig.tap->acks, expected);
    EXPECT_TRUE(rig.fleet->done());
    EXPECT_EQ(rig.server.protocol_metrics().acks_sent, 1u);
    EXPECT_EQ(rig.server.transport_metrics().datagrams_sent, 1u);
}

TEST(ArenaAcks, SessionStraddlingTwoArenasGetsOneAckPerArena) {
    // Arena 1: s1 DATA 0, s1 DATA 1, s2 DATA 0.  Arena 2: s2 DATA 1.
    Rig rig(sink_server(2, 3), fleet_config(2, 2));
    rig.fleet->poll();
    rig.server.poll();
    rig.fleet->poll();
    const std::vector<AckFrame> expected = {
        {wire::Conn{1, 1}, 0, 1},
        {wire::Conn{2, 1}, 0, 0},
        {wire::Conn{2, 1}, 1, 1},
    };
    EXPECT_EQ(rig.tap->acks, expected);
    EXPECT_TRUE(rig.fleet->done());
    EXPECT_EQ(rig.server.protocol_metrics().acks_sent, 3u);
    EXPECT_EQ(rig.server.transport_metrics().datagrams_sent, 3u);
}

// 8 sessions x 16 messages at w=2 through 5-datagram arenas: a whole
// window lands in one arena unless an arena edge splits it, which two of
// each round's eight windows straddle -- 64 + 16 blocks.  One ack per
// DATA sent 128 ACK frames for this run.
constexpr std::uint64_t kGoldenAcks = 80;

TEST(ArenaAcks, LongerRunTotalsArePinned) {
    constexpr std::size_t kSessions = 8;
    constexpr Seq kMessages = 16;
    Rig rig(sink_server(kMessages, 5), fleet_config(kSessions, kMessages));
    drive(rig.clock, *rig.fleet, rig.server);
    ASSERT_TRUE(rig.fleet->done());
    const sim::Metrics server = rig.server.protocol_metrics();
    EXPECT_EQ(server.delivered, kSessions * kMessages);
    EXPECT_EQ(server.dup_acks, 0u);
    EXPECT_EQ(rig.fleet->protocol_metrics().data_retx, 0u);
    EXPECT_EQ(server.acks_sent, kGoldenAcks);
    EXPECT_EQ(rig.server.transport_metrics().datagrams_sent, kGoldenAcks);
    EXPECT_EQ(rig.tap->acks.size(), kGoldenAcks);
}

// A duplex fleet holds its own acks the same way: the server's sessions
// originate data back, and each member acks once per fleet arena.
TEST(ArenaAcks, DuplexFleetMembersAckOncePerArena) {
    constexpr std::size_t kSessions = 4;
    constexpr Seq kMessages = 8;
    ServerConfig scfg = sink_server(kMessages, 64);
    scfg.session.count = kMessages;
    FleetConfig fcfg = fleet_config(kSessions, kMessages);
    fcfg.session.rx_count = kMessages;
    Rig rig(scfg, fcfg);
    drive(rig.clock, *rig.fleet, rig.server);
    ASSERT_TRUE(rig.fleet->done());
    const sim::Metrics fleet = rig.fleet->protocol_metrics();
    EXPECT_EQ(fleet.delivered, kSessions * kMessages);
    EXPECT_EQ(fleet.data_retx, 0u);
    // Both DATA of every window reach a member in one arena.
    EXPECT_EQ(fleet.acks_sent, kSessions * kMessages / 2);
    EXPECT_EQ(rig.server.protocol_metrics().acks_sent, kSessions * kMessages / 2);
}

// ---- teardown while an ack is held --------------------------------------

// At a one-session cap, s2's first frame evicts s1 mid-arena while s1
// holds the block for its DATA 0..1.  The held ack dies with s1, as a
// loss: s1's timer resends, a fresh session acks, and both finish.
TEST(ArenaAcks, PressureEvictedSessionDropsItsHeldAck) {
    ServerConfig scfg = sink_server(2, 64);
    scfg.max_sessions = 1;
    Rig rig(scfg, fleet_config(2, 2));
    rig.fleet->poll();
    rig.server.poll();
    EXPECT_EQ(rig.server.stats().sessions_pressure_evicted, 1u);
    rig.fleet->poll();
    const std::vector<AckFrame> first = {{wire::Conn{2, 1}, 0, 1}};
    EXPECT_EQ(rig.tap->acks, first);

    drive(rig.clock, *rig.fleet, rig.server);
    ASSERT_TRUE(rig.fleet->done());
    EXPECT_EQ(rig.fleet->session(0).tx_metrics().data_retx, 2u);
    // The sender's resend gate lets DATA 1 follow only once DATA 0 is
    // acknowledged again.
    const std::vector<AckFrame> all = {
        {wire::Conn{2, 1}, 0, 1},
        {wire::Conn{1, 1}, 0, 0},
        {wire::Conn{1, 1}, 1, 1},
    };
    EXPECT_EQ(rig.tap->acks, all);
}

// A restarted peer's first frame resets its session mid-arena while the
// old incarnation holds a block.  Only the new incarnation's ack leaves.
TEST(ArenaAcks, EpochResetDropsTheOldIncarnationsHeldAck) {
    ManualClock clock;
    InprocHub hub;
    Server<Core> server(sink_server(2, 64), {}, clock, {&hub.server()});
    std::unique_ptr<Transport> peer = hub.make_client();
    const std::uint8_t payload[32] = {};
    std::vector<std::vector<std::uint8_t>> frames(3);
    wire::encode_data_to(frames[0], 0, payload, wire::kFlagNone, wire::kNoStream,
                         wire::Conn{1, 1});
    wire::encode_data_to(frames[1], 1, payload, wire::kFlagNone, wire::kNoStream,
                         wire::Conn{1, 1});
    wire::encode_data_to(frames[2], 0, payload, wire::kFlagNone, wire::kNoStream,
                         wire::Conn{1, 2});
    for (const auto& f : frames) {
        const std::span<const std::uint8_t> one[] = {f};
        ASSERT_EQ(peer->send_batch(one), 1u);
    }
    server.poll();
    EXPECT_EQ(server.stats().sessions_reset, 1u);

    AckTap tap(std::move(peer));
    RecvBatch rx(8, 256);
    ASSERT_EQ(tap.recv_batch(rx), 1u);
    const std::vector<AckFrame> expected = {{wire::Conn{1, 2}, 0, 0}};
    EXPECT_EQ(tap.acks, expected);
}

// The idle sweep runs after the arena's acks are out: a session swept
// in the poll that delivered its window has already acked it.
TEST(ArenaAcks, IdleSweepFollowsTheArenasAcks) {
    ServerConfig scfg = sink_server(2, 64);
    scfg.idle_timeout = 0;
    scfg.sweep_interval = 0;
    Rig rig(scfg, fleet_config(1, 2));
    rig.fleet->poll();
    rig.server.poll();
    EXPECT_EQ(rig.server.stats().sessions_evicted, 1u);
    EXPECT_EQ(rig.server.session_count(), 0u);
    rig.fleet->poll();
    const std::vector<AckFrame> expected = {{wire::Conn{1, 1}, 0, 1}};
    EXPECT_EQ(rig.tap->acks, expected);
    EXPECT_TRUE(rig.fleet->done());
}

}  // namespace
}  // namespace bacp::net
