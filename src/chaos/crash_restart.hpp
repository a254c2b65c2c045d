#pragma once

/// \file crash_restart.hpp
/// The crash/restart fault class over the real net runtime: a client
/// dies mid-window -- un-acked frames still in flight, its entire soft
/// state (scoreboards, timers, payload buffers) gone -- and rejoins by
/// bumping the epoch in its connection tag, with no handshake.  The
/// server resets the session in place on the first higher-epoch frame
/// and drops late frames from the dead incarnation as stale
/// (PROTOCOL.md §8); the second incarnation must then complete with
/// exactly-once delivery.
///
/// Driven over net::InprocHub + ManualClock, so every run is an exact
/// function of its spec.  The client deliberately keeps its transport
/// across the crash (same source address) -- the faithful model of a
/// process restart, which also leaves the dead incarnation's in-flight
/// frames in the fabric for the server's stale-epoch filter to catch.
/// crash_after must exceed 2w: the restarted sender shares the socket
/// with its predecessor's late acks, and acks that far above the fresh
/// window clip to nothing (runtime/ack_clip.hpp) instead of aliasing
/// into it.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chaos/fault.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "net/clock.hpp"
#include "net/inproc_hub.hpp"
#include "net/net_engine.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"

namespace bacp::chaos {

struct CrashRestartSpec {
    Seq w = 4;
    Seq first_count = 24;   // first incarnation's intended transfer
    Seq crash_after = 12;   // server deliveries before the cut (must be > 2w)
    Seq second_count = 16;  // what the restarted incarnation ships
    std::size_t payload_size = 64;
    double loss = 0.0;  // symmetric impairment, both incarnations
    std::uint64_t seed = 11;
    SimTime deadline = 120 * kSecond;
};

struct CrashRestartReport {
    bool crashed_mid_window = false;  // the cut landed with frames un-acked
    bool rejoined = false;            // epoch bump reset the session in place
    bool completed = false;           // second incarnation finished
    bool exactly_once = false;        // rejoined session delivered exactly its count
    std::uint64_t delivered_before_crash = 0;
    std::uint64_t delivered_after_rejoin = 0;
    std::uint64_t payload_mismatches = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t stale_epoch_drops = 0;
    SimTime rejoin_to_complete = 0;  // restart instant -> transfer complete

    bool ok() const { return crashed_mid_window && rejoined && completed && exactly_once; }
};

/// Runs the mid-window crash + epoch-rejoin scenario against a real
/// net::Server<Core>.
template <typename Core>
CrashRestartReport run_crash_restart(const CrashRestartSpec& spec = {}) {
    BACP_ASSERT_MSG(spec.crash_after > 2 * spec.w, "crash_after must clear the ack-clip horizon");
    BACP_ASSERT_MSG(spec.crash_after < spec.first_count, "the cut must land mid-transfer");

    net::ManualClock clock;
    net::InprocHub hub;

    net::ServerConfig scfg;
    scfg.session.w = spec.w;
    scfg.session.seed = spec.seed;
    scfg.session.payload_size = spec.payload_size;
    scfg.session.rx_count = 1 << 20;  // receivers run open-ended
    scfg.impair.loss = spec.loss;
    net::Server<Core> server(scfg, {}, clock, {&hub.server()});

    const auto client_config = [&](Seq count, wire::Conn conn) {
        net::NetConfig cfg;
        cfg.w = spec.w;
        cfg.count = count;
        cfg.seed = spec.seed;
        cfg.payload_size = spec.payload_size;
        cfg.conn = conn;
        return cfg;
    };

    std::unique_ptr<net::Transport> transport = hub.make_client();
    auto wheel = std::make_unique<net::TimerWheel>(clock);
    auto sender = std::make_unique<net::NetEndpoint<Core>>(
        client_config(spec.first_count, wire::Conn{7, 1}), typename Core::Options{},
        *wheel, *transport);
    sender->start();

    /// Drains all work at the current instant, then jumps the shared
    /// clock to the earliest armed deadline; stops when \p stop returns
    /// true (checked between polls, so the cut lands mid-exchange) or
    /// nothing remains before the deadline.
    const auto drive = [&](auto&& stop) {
        std::vector<const net::TimerWheel*> wheels = {wheel.get()};
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            wheels.push_back(&server.shard_wheel(i));
        }
        for (;;) {
            for (;;) {
                const std::size_t work = server.poll() + sender->poll();
                if (stop()) return;
                if (work == 0) break;
            }
            const std::optional<SimTime> next = net::earliest_deadline(wheels);
            if (!next || *next > spec.deadline) return;
            clock.advance_to(*next);
        }
    };

    CrashRestartReport report;

    // ---- incarnation 1: run to the cut, then die ---------------------------
    drive([&] { return server.protocol_metrics().delivered >= spec.crash_after; });
    report.delivered_before_crash = server.protocol_metrics().delivered;
    report.crashed_mid_window = !sender->done();
    // The crash: sender and timers vanish; the transport (source
    // address) and whatever frames are still in the fabric survive.
    sender.reset();
    wheel = std::make_unique<net::TimerWheel>(clock);

    // ---- incarnation 2: same conn, epoch + 1, no handshake -----------------
    const SimTime restarted_at = clock.now();
    sender = std::make_unique<net::NetEndpoint<Core>>(
        client_config(spec.second_count, wire::Conn{7, 2}), typename Core::Options{},
        *wheel, *transport);
    sender->start();
    drive([&] { return false; });

    const net::ServerStats stats = server.stats();
    report.completed = sender->done();
    report.rejoined = stats.sessions_reset == 1;
    report.sessions_opened = stats.sessions_opened;
    report.stale_epoch_drops = stats.stale_epoch_drops;
    report.rejoin_to_complete = clock.now() - restarted_at;
    for (const net::SessionView& v : server.sessions()) {
        if (v.conn != 7) continue;
        report.delivered_after_rejoin = v.delivered;
        report.payload_mismatches = v.payload_mismatches;
        report.exactly_once = report.completed && v.epoch == 2 &&
                              v.delivered == spec.second_count &&
                              v.payload_mismatches == 0;
    }
    return report;
}

}  // namespace bacp::chaos
