// fleet: a ClientFleet of thousands of long-lived sessions on four
// connected sockets against a 2-shard Server, both polled by one loop.
//
// Demux through the session tables, a hierarchical wheel with thousands
// of timers armed, and shared-batch egress set the cost here; the send
// horizon and loss recovery are bypassed (clean path, zero
// retransmissions).  Window x sessions (3072 datagrams, 1536 per shard)
// is sized so the burst of one loop iteration fits a 4 MiB socket buffer.
// Every session is opened and answered during set-up; the timed window
// starts only when sessions_touched == sessions.  Per-session memory
// (about 110 KiB on each side) keeps peak RSS near 390 MiB.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ba/engine_core.hpp"
#include "ba/receiver.hpp"
#include "ba/sender.hpp"
#include "net/client_fleet.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bacp;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kSessions = 1536;
constexpr Seq kWindow = 2;
constexpr std::size_t kPayload = 32;
constexpr std::size_t kMaxFrame = kPayload + 128;
constexpr SimTime kLifetime = 1 * kMillisecond;
// Far above one loop iteration over every session, so a slow iteration
// never looks like loss.
constexpr SimTime kTimeout = 1 * kSecond;
constexpr std::size_t kShards = 2;
constexpr std::size_t kClientSockets = 4;
constexpr std::size_t kSocketBuffer = std::size_t{4} << 20;
constexpr Seq kFirstConn = 1;
constexpr std::size_t kSlots = 8;  // per-session ring of send times (> window)
// Sizes the fixed work: messages per session = rate x (window + warm-up)
// / sessions, so the window lasts about --seconds at this rate.
constexpr double kNominalRate = 200000;  // msgs/s
constexpr double kWarmSeconds = 0.5;
constexpr SimTime kLimit = 60 * kSecond;

/// Send->ack latency seen at the client sockets: DATA leaving a socket
/// stamps (conn, seq); the first ack covering it records the sample.
/// Server sessions have no delivery hook reachable from outside, and the
/// fleet's per-session histograms are private, so this is measured at
/// the transport boundary.
class AckLatency final : public TapObserver {
public:
    AckLatency(net::Clock& clock, Window& win)
        : clock_(&clock),
          win_(&win),
          sent_seq_(kSessions * kSlots, ~Seq{0}),
          sent_at_(kSessions * kSlots, 0) {}

    void on_sent(std::span<const std::span<const std::uint8_t>> datagrams) override {
        const SimTime now = clock_->now();
        for (const auto& d : datagrams) {
            const wire::ViewResult v = wire::decode_view(d);
            if (!v.ok() || v.frame().type != wire::FrameType::Data) continue;
            const std::size_t slot = slot_of(v.frame().conn.id, v.frame().seq);
            if (slot == kNoSlot || sent_seq_[slot] == v.frame().seq) continue;
            sent_seq_[slot] = v.frame().seq;
            sent_at_[slot] = now;
        }
    }

    void on_received(const net::RecvBatch& batch) override {
        const SimTime now = clock_->now();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const wire::ViewResult v = wire::decode_view(batch[i]);
            if (!v.ok()) continue;
            const wire::FrameView& f = v.frame();
            if (f.type != wire::FrameType::Ack && f.type != wire::FrameType::DataAck) continue;
            if (f.hi < f.lo || f.hi - f.lo >= kSlots) continue;
            for (Seq s = f.lo; s <= f.hi; ++s) {
                const std::size_t slot = slot_of(f.conn.id, s);
                if (slot == kNoSlot || sent_seq_[slot] != s) continue;
                sent_seq_[slot] = ~Seq{0};
                win_->sample(now - sent_at_[slot]);
                ++acked_;
            }
        }
    }

    /// Messages whose first ack reached the client.
    std::uint64_t acked() const { return acked_; }

private:
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    static std::size_t slot_of(Seq conn, Seq seq) {
        if (conn < kFirstConn || conn >= kFirstConn + kSessions) return kNoSlot;
        return static_cast<std::size_t>(conn - kFirstConn) * kSlots +
               static_cast<std::size_t>(seq % kSlots);
    }

    net::Clock* clock_;
    Window* win_;
    std::vector<Seq> sent_seq_;
    std::vector<SimTime> sent_at_;
    std::uint64_t acked_ = 0;
};

/// Connected client sockets, kClientSockets / kShards landing on each
/// shard.  SO_REUSEPORT hashes a client's address to one shard with a
/// per-boot secret, so four ephemeral sockets split 4-0 or 3-1 about
/// two runs in three; since a shard's drain per poll is bounded, the
/// split would set how fast each session advances.  Probing each
/// candidate with one datagram and keeping a balanced set makes the
/// topology the same in every run.
std::vector<std::unique_ptr<net::UdpTransport>> balanced_client_sockets(
    std::vector<std::unique_ptr<net::UdpTransport>>& shards, std::uint16_t port) {
    std::vector<std::unique_ptr<net::UdpTransport>> kept;
    std::vector<std::size_t> per_shard(shards.size(), 0);
    const std::size_t quota = kClientSockets / shards.size();
    net::RecvBatch rx(4, 2048);
    const std::uint8_t probe[1] = {0};
    const std::span<const std::uint8_t> probe_span(probe);
    for (int attempt = 0; attempt < 256 && kept.size() < kClientSockets; ++attempt) {
        auto t = std::make_unique<net::UdpTransport>();
        t->connect_peer(port);
        t->send_batch(std::span<const std::span<const std::uint8_t>>(&probe_span, 1));
        std::size_t landed = shards.size();
        for (int spin = 0; spin < 1000 && landed == shards.size(); ++spin) {
            for (std::size_t i = 0; i < shards.size(); ++i) {
                if (shards[i]->recv_batch(rx) > 0) landed = i;
            }
        }
        if (landed < shards.size() && per_shard[landed] < quota) {
            ++per_shard[landed];
            kept.push_back(std::move(t));
        }
    }
    return kept;
}

DriverCounts driver_counts(const net::ClientFleet<Core>& fleet, const net::Server<Core>& server) {
    DriverCounts c;
    c.add(fleet.protocol_metrics());
    c.add(server.protocol_metrics());
    return c;
}

}  // namespace

Result run_fleet(const Args& args) {
    Result r;
    r.workload = "fleet";
    const SimTime t_begin = mono_ns();
    net::SteadyClock clock;
    const Seq per_session = static_cast<Seq>(
        std::ceil(kNominalRate * (args.seconds + kWarmSeconds) / static_cast<double>(kSessions)));
    const double warm_msgs = kNominalRate * kWarmSeconds;

    const int slices = slice_count(args.seconds);
    const SimTime slice_ns = static_cast<SimTime>(args.seconds * 1e9 / slices);
    Window win(slices, slice_ns, static_cast<std::size_t>(kSessions * per_session));
    AckLatency latency(clock, win);

    // ---- server: construction, then its sessions open during warm-up ----
    const double rss0 = rss_kib();
    const Proc proc0 = Proc::now();
    auto [shard_sockets, port] =
        net::make_reuseport_shards(0, kShards, net::OffloadMode::Auto, kSocketBuffer);
    std::vector<std::unique_ptr<Tap>> shard_taps;
    std::vector<net::AddressedTransport*> shard_ptrs;
    for (auto& s : shard_sockets) {
        shard_taps.push_back(std::make_unique<Tap>(*s));
        shard_ptrs.push_back(shard_taps.back().get());
    }
    net::ServerConfig scfg;
    scfg.session.w = kWindow;
    scfg.session.rx_count = per_session;
    scfg.session.payload_size = kPayload;
    scfg.session.max_datagram = kMaxFrame;
    scfg.session.link_lifetime = kLifetime;
    scfg.session.timeout = kTimeout;
    scfg.session.seed = args.seed;
    scfg.recv_batch = 512;
    scfg.idle_timeout = 600 * kSecond;
    scfg.max_sessions = kSessions + 64;
    net::Server<Core> server(scfg, {}, clock, shard_ptrs);
    const double rss1 = rss_kib();
    const Proc proc1 = Proc::now();

    // ---- client fleet ----
    std::vector<std::unique_ptr<net::UdpTransport>> client_sockets =
        balanced_client_sockets(shard_sockets, port);
    if (client_sockets.size() != kClientSockets) {
        r.check(false, "could not place client sockets evenly on the shards");
        return r;
    }
    std::vector<std::unique_ptr<Tap>> client_taps;
    std::vector<net::Transport*> client_ptrs;
    for (auto& t : client_sockets) {
        t->request_buffer_sizes(kSocketBuffer);
        t->enable_offload(net::OffloadMode::Auto);
        client_taps.push_back(std::make_unique<Tap>(*t, &latency));
        client_ptrs.push_back(client_taps.back().get());
    }
    net::FleetConfig fcfg;
    fcfg.session.w = kWindow;
    fcfg.session.count = per_session;
    fcfg.session.payload_size = kPayload;
    fcfg.session.max_datagram = kMaxFrame;
    fcfg.session.link_lifetime = kLifetime;
    fcfg.session.timeout = kTimeout;
    fcfg.session.seed = args.seed;
    fcfg.sessions = kSessions;
    fcfg.first_conn = kFirstConn;
    fcfg.max_active = 0;  // every session concurrent for the whole run
    fcfg.recv_batch = 512;
    net::ClientFleet<Core> fleet(fcfg, {}, clock, client_ptrs);
    // Admit every session: each stages its first window.
    fleet.poll();
    const double rss2 = rss_kib();
    const Proc proc2 = Proc::now();

    std::vector<Tap*> taps;
    for (auto& t : shard_taps) taps.push_back(t.get());
    for (auto& t : client_taps) taps.push_back(t.get());
    Waiter waiter(taps, clock);
    const auto earliest_deadline = [&](SimTime cap) {
        SimTime d = cap;
        if (const auto n = fleet.wheel().next_deadline()) d = std::min(d, *n);
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            if (const auto n = server.shard_wheel(i).next_deadline()) d = std::min(d, *n);
        }
        return d;
    };

    // The server opens each session on its first frame.
    while (server.session_count() < kSessions && clock.now() < kLimit) {
        if (server.poll() == 0) waiter.wait_until(earliest_deadline(clock.now() + kSecond));
    }
    const double rss3 = rss_kib();
    const Proc proc3 = Proc::now();
    r.check(server.session_count() == kSessions, "server did not open every session");

    const auto msgs = [&] { return latency.acked(); };
    const auto bytes = [&] { return latency.acked() * kPayload; };
    Tap::Counts taps0;
    Tap::Counts taps1;
    DriverCounts drv0;
    DriverCounts drv1;
    std::uint64_t fired0 = 0, fired1 = 0, work0 = 0, work1 = 0, allocs0 = 0, allocs1 = 0;
    const auto wheel_totals = [&](std::uint64_t& fired, std::uint64_t& work) {
        fired = fleet.wheel().timers_fired();
        work = fleet.wheel().fire_work();
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            fired += server.shard_wheel(i).timers_fired();
            work += server.shard_wheel(i).fire_work();
        }
    };
    const auto close_window = [&] {
        allocs1 = allocs_now();
        spans().set_counting(false);
        waiter.set_counting(false);
        taps1 = sum_counts(taps);
        drv1 = driver_counts(fleet, server);
        wheel_totals(fired1, work1);
    };

    bool warm = false;
    double setup_s = 0;
    while (r.failures.empty()) {
        std::size_t work = 0;
        {
            SpanScope span(Span::FleetPoll);
            work += fleet.poll();
        }
        for (std::size_t i = 0; i < server.shard_count(); ++i) {
            SpanScope span(Span::ServerPoll);
            work += server.poll_shard(i);
        }
        const SimTime now = clock.now();
        if (!warm && fleet.stats().sessions_touched == kSessions &&
            static_cast<double>(latency.acked()) >= warm_msgs) {
            warm = true;
            setup_s = static_cast<double>(mono_ns() - t_begin) / 1e9;
            if (args.setup_only) break;
            taps0 = sum_counts(taps);
            drv0 = driver_counts(fleet, server);
            wheel_totals(fired0, work0);
            spans().set_counting(true);
            waiter.set_counting(true);
            win.start(now, msgs(), bytes());
            allocs0 = allocs_now();
        } else if (win.open()) {
            // The fixed work ends the window early if it runs out: the
            // first finished session marks the start of the drain.
            if (fleet.finished_count() > 0) {
                win.close_early(now, msgs(), bytes());
                close_window();
            } else if (now >= win.next_mark() && win.mark(now, msgs(), bytes())) {
                close_window();
            }
        }
        if (fleet.done()) break;
        if (now > kLimit) {
            r.check(false, "fleet did not finish");
            break;
        }
        if (work == 0) {
            SimTime cap = now + kSecond;
            if (win.open()) cap = std::min(cap, win.next_mark());
            waiter.wait_until(earliest_deadline(cap));
        }
    }
    r.setup_s = setup_s;
    if (args.setup_only || !r.failures.empty()) return r;
    if (win.open()) {
        win.close_early(clock.now(), msgs(), bytes());
        close_window();
    }

    // Quiesce: every datagram a socket accepted must reach its peer.
    for (int i = 0; i < 200; ++i) {
        fleet.poll();
        server.poll();
        const Tap::Counts c = sum_counts(taps);
        if (c.sent == c.received) break;
        waiter.wait_until(clock.now() + kMillisecond);
    }
    const Tap::Counts all = sum_counts(taps);
    std::uint64_t kernel_drops = all.sent - all.received;
    for (const auto& s : shard_sockets) kernel_drops += s->stats().send_drops;
    for (const auto& s : client_sockets) kernel_drops += s->stats().send_drops;

    Window::Figures f = win.figures();
    const Tap::Counts dtaps = taps1 - taps0;
    r.e2e_from(f, ratio(static_cast<double>(dtaps.bytes_sent), static_cast<double>(f.bytes)),
               setup_s);
    r.note("offload_tier", net::offload_mode_name(client_sockets.front()->offload_tier()));
    r.note("sessions", static_cast<double>(kSessions));
    r.note("msgs_per_session", static_cast<double>(per_session));

    // ---- correctness ----
    const std::uint64_t offered = kSessions * per_session;
    std::uint64_t good = 0;
    std::uint64_t mismatches = 0;
    std::size_t complete = 0;
    const std::vector<net::SessionView> views = server.sessions();
    for (const net::SessionView& v : views) {
        good += std::min<std::uint64_t>(v.delivered, per_session);
        mismatches += v.payload_mismatches;
        if (v.delivered == per_session) ++complete;
    }
    const DriverCounts drv_end = driver_counts(fleet, server);
    const net::ServerStats ss = server.stats();
    const net::FleetStats& fs = fleet.stats();
    r.attempted = offered;
    r.failed = (offered - good) + mismatches;
    r.check(views.size() == kSessions && complete == kSessions,
            "a server session delivered != offered");
    r.check(mismatches == 0, "payload bytes differ from pattern_fill");
    r.check(latency.acked() == offered, "client saw acks for != offered messages");
    r.check(drv_end.data_retx == 0, "retransmissions on a clean path");
    r.check(drv_end.decode_errors == 0 && ss.decode_errors == 0 && ss.crc_errors == 0 &&
                fs.decode_errors == 0 && fs.crc_errors == 0 && fs.unknown_conn_drops == 0,
            "decode or CRC errors");
    r.check(ss.sessions_rejected == 0 && ss.sessions_evicted == 0 &&
                ss.sessions_pressure_evicted == 0,
            "server shed or evicted sessions");
    r.check(kernel_drops == 0, "kernel dropped datagrams");
    // A faster fleet finishes its fixed work early and ends the window
    // with fewer slices; below eight the medians are not trustworthy.
    r.check(f.slices >= 8, "timed window too short");
    r.check(f.min_slice_samples >= 1000, "fewer than 1000 latency samples in a slice");

    // ---- per-layer ----
    NetLayerInputs in;
    in.fig = &f;
    in.waiter = &waiter;
    in.taps = dtaps;
    in.kernel_drops = kernel_drops;
    in.timers_fired = fired1 - fired0;
    in.fire_work = work1 - work0;
    in.allocs = allocs1 - allocs0;
    add_net_layers(r, in);
    const double m = static_cast<double>(f.msgs);
    r.layer("server.self_ns_per_msg",
            ratio(static_cast<double>(spans().total(Span::ServerPoll).self_ns), m));
    r.layer("client_fleet.self_ns_per_msg",
            ratio(static_cast<double>(spans().total(Span::FleetPoll).self_ns), m));
    const double sessions = static_cast<double>(kSessions);
    r.layer("server.rss_kib_per_session", ((rss1 - rss0) + (rss3 - rss2)) / sessions);
    r.layer("client_fleet.rss_kib_per_session", (rss2 - rss1) / sessions);
    // Set-up CPU, split the same way as the memory above.
    const auto setup_ms = [&](double Proc::*field) {
        return std::pair{((proc1.*field - proc0.*field) + (proc3.*field - proc2.*field)) / 1e3,
                         (proc2.*field - proc1.*field) / 1e3};
    };
    const auto [server_cpu, fleet_cpu] = setup_ms(&Proc::cpu_us);
    const auto [server_sys, fleet_sys] = setup_ms(&Proc::sampled_sys_us);
    r.note("server.setup_cpu_ms", server_cpu);
    r.note("server.setup_sys_ms", server_sys);
    r.note("client_fleet.setup_cpu_ms", fleet_cpu);
    r.note("client_fleet.setup_sys_ms", fleet_sys);
    add_driver_layers(r, drv0, drv1, m);
    return r;
}

}  // namespace perfbench
