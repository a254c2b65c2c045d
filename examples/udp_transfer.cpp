// udp_transfer: the block-ack protocol moving real bytes over real
// sockets.
//
// Default mode runs a complete transfer inside one process through
// net::NetEngine::run_threaded -- endpoint A on the main thread, endpoint
// B on a worker thread, two UDP sockets on loopback with seeded
// loss/dup/reorder between them -- and prints live per-second metrics
// from A's event loop.
//
//   $ ./udp_transfer                          # 4 MB, 5% loss, two threads
//   $ ./udp_transfer --mb 16 --loss 0.2 --proto sr
//   $ ./udp_transfer --inproc                 # deterministic replay mode
//   $ ./udp_transfer --proto ba-bounded --timeout-mode simple --w 16
//   $ ./udp_transfer --duplex                 # bidirectional, piggybacked acks
//
// The protocol knobs (--w, --timeout-mode) are the unified
// runtime::EngineConfig surface NetConfig inherits: the same fields, with
// the same meanings and defaults, configure a DES run of the same core.
// Every core the DES engine drives runs here too -- including the
// wire-mapped ones (ba-bounded, tc), whose frames carry residues the
// receiver translates back at delivery.
//
// Two-process mode splits the endpoints across real processes; each side
// binds its own port and connects to the peer's.  Every endpoint is
// duplex-capable: --send and --recv give the classic one-way pair, and
// --duplex on both sides transfers --mb megabytes in *each* direction
// simultaneously, with each side's acks piggybacked on its own DATA
// (wire DATA+ACK frames) and payloads verified at both ends:
//
//   terminal 1: ./udp_transfer --recv --port 9001 --peer 9000
//   terminal 2: ./udp_transfer --send --port 9000 --peer 9001
//
//   terminal 1: ./udp_transfer --duplex --port 9001 --peer 9000
//   terminal 2: ./udp_transfer --duplex --port 9000 --peer 9001
//
// Server mode multiplexes many concurrent senders over a few shared
// sockets (net::Server): every client -- tagged or plain v1 -- becomes
// a session keyed by (source address, conn-id), with per-session
// impairment seeded from the base seed and the conn-id:
//
//   terminal 1: ./udp_transfer --serve --port 9000
//   terminal 2: ./udp_transfer --send --port 9001 --peer 9000
//   terminal 3: ./udp_transfer --send --port 9002 --peer 9000
//
// Exit status is nonzero if the transfer is incomplete at the deadline
// or any delivered payload fails verification.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "net/net_session.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "runtime/session_util.hpp"

using namespace bacp;
using namespace bacp::literals;

namespace {

constexpr std::size_t kChunk = 1024;

// --serve runs open-ended until its deadline, so ^C is the normal way to
// stop it; the handler only raises a flag the poll loop checks between
// idle waits (at most net::kIdleWaitCap), letting the final census line
// still print.
volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void on_sigint(int) { g_interrupted = 1; }

struct Params {
    double mb = 4.0;
    double loss = 0.05;
    std::uint64_t seed = 7;
    SimTime deadline = 60 * kSecond;
    Seq w = 32;
    std::optional<runtime::TimeoutMode> timeout_mode;  // nullopt = core default
    std::string proto = "ba";
    enum class Mode { Threads, Inproc, Send, Recv, Serve } mode = Mode::Threads;
    /// Bidirectional: both endpoints transfer --mb each way, acks ride
    /// reverse DATA.  Combines with Threads/Inproc (one process) or with
    /// --port/--peer (a two-process duplex endpoint).
    bool duplex = false;
    bool piggyback = true;  // --no-piggyback: duplex without deferral (A/B)
    double pb_delay_ms = 4.0;  // --pb-delay-ms: ack-deferral bound
    std::uint16_t port = 0;
    std::uint16_t peer = 0;
    std::size_t shards = 2;  // --serve: reuseport sockets sharing the port
    // Kernel offload tier for every UDP socket this process opens; mmsg
    // keeps the portable baseline, auto climbs to what the kernel has.
    net::OffloadMode offload = net::OffloadMode::Mmsg;
};

net::NetConfig make_cfg(const Params& p) {
    net::NetConfig cfg;
    // Inherited runtime::EngineConfig fields -- identical surface to a
    // DES runtime::Engine run of the same core.
    cfg.w = p.proto == "abp" ? 1 : p.w;  // the alternating bit IS w = 1
    cfg.count = static_cast<Seq>((p.mb * 1e6 + kChunk - 1) / kChunk);
    cfg.timeout_mode = p.timeout_mode;
    cfg.seed = p.seed;
    cfg.deadline = p.deadline;
    // Net-only knobs.
    cfg.payload_size = kChunk;
    cfg.impair = net::ImpairSpec::lossy(p.loss);
    cfg.link_lifetime = 20 * kMillisecond;
    cfg.offload = p.offload;
    if (p.duplex) {
        cfg.reverse_count = cfg.count;  // NetEngine modes: B sends back too
        cfg.piggyback = p.piggyback;
        cfg.piggyback_delay = static_cast<SimTime>(p.pb_delay_ms * kMillisecond);
    }
    return cfg;
}

std::optional<runtime::TimeoutMode> parse_timeout_mode(const std::string& name) {
    using runtime::TimeoutMode;
    for (const TimeoutMode mode :
         {TimeoutMode::SimpleTimer, TimeoutMode::PerMessageTimer, TimeoutMode::OracleSimple,
          TimeoutMode::OraclePerMessage}) {
        if (name == runtime::to_string(mode)) return mode;
    }
    // Short forms: the paper's realistic disciplines.
    if (name == "simple") return TimeoutMode::SimpleTimer;
    if (name == "per-message") return TimeoutMode::PerMessageTimer;
    return std::nullopt;
}

void progress(const char* who, SimTime elapsed, const sim::Metrics& m, Seq delivered) {
    std::printf("[%s %5.1fs] new=%llu retx=%llu acks=%llu delivered=%llu (%.2f MB)\n", who,
                to_seconds(elapsed), (unsigned long long)m.data_new,
                (unsigned long long)m.data_retx,
                (unsigned long long)(m.acks_received + m.acks_sent),
                (unsigned long long)delivered,
                static_cast<double>(delivered) * kChunk / 1e6);
    std::fflush(stdout);
}

/// One endpoint of a two-process run: its event loop over an
/// already-connected transport.
/// Covers every role: pure sender (rx_count == 0), pure receiver
/// (count == 0), and full duplex.  Returns true when everything this
/// endpoint originates is acknowledged AND everything it expects has
/// been delivered and verified, before the deadline.
template <typename Core>
bool endpoint_loop(const net::NetConfig& cfg, net::Clock& clock, net::TimerWheel& wheel,
                   net::Transport& transport, const char* who) {
    net::NetEndpoint<Core> endpoint(cfg, {}, wheel, transport);
    // A receiving side must stay up after its last delivery to re-ack
    // duplicate retransmissions (its final acks may have been lost); it
    // exits after a quiet linger period.  A pure sender's acks are the
    // peer's problem, so it exits the moment it is done.
    const SimTime linger = cfg.rx_count > 0 ? 2 * cfg.effective_timeout() : 0;
    const SimTime start = clock.now();
    SimTime last_print = start;
    SimTime last_activity = start;
    const int fds[] = {transport.fd()};
    const net::TimerWheel* const wheels[] = {&wheel};
    endpoint.start();
    while (clock.now() - start <= cfg.deadline) {
        if (endpoint.poll() > 0) {
            last_activity = clock.now();
        } else {
            if (endpoint.done() && clock.now() - last_activity >= linger) break;
            net::idle_wait(fds, wheels);
        }
        if (clock.now() - last_print >= kSecond) {
            last_print = clock.now();
            progress(who, last_print - start, endpoint.metrics(), endpoint.delivered());
        }
    }
    const sim::Metrics& m = endpoint.metrics();
    const bool intact = endpoint.payload_mismatches() == 0;
    std::printf("%s: %s in %.1fs -- tx %llu new + %llu retx (%.1f%%), "
                "rx %llu/%llu delivered (%.2f MB)",
                who, endpoint.done() ? "completed" : "DEADLINE EXCEEDED",
                to_seconds(clock.now() - start), (unsigned long long)m.data_new,
                (unsigned long long)m.data_retx, m.retx_fraction() * 100,
                (unsigned long long)endpoint.delivered(), (unsigned long long)cfg.rx_count,
                static_cast<double>(endpoint.bytes_delivered()) / 1e6);
    if (cfg.piggyback) {
        std::printf(", %llu acks piggybacked / %llu standalone",
                    (unsigned long long)endpoint.piggybacked(),
                    (unsigned long long)endpoint.standalone_acks());
    }
    if (cfg.rx_count > 0) std::printf(" -- payloads %s", intact ? "INTACT" : "CORRUPT");
    std::printf("\n");
    return endpoint.done() && intact;
}

/// One process, both endpoints: by default two threads over two UDP
/// sockets (NetEngine::run_threaded, the real deployment shape), with
/// --inproc the deterministic single-threaded InprocTransport +
/// ManualClock replay.  With --duplex both endpoints source and sink --mb
/// megabytes.
template <typename Engine>
int run_engine(const Params& p) {
    const bool inproc = p.mode == Params::Mode::Inproc;
    Engine engine(make_cfg(p), {}, inproc ? net::NetMode::Inproc : net::NetMode::Udp);
    net::NetReport r;
    if (inproc) {
        r = engine.run();
    } else {
        const char* who = p.duplex ? "main" : "send";
        const SimTime start = engine.sender().wheel().now();
        SimTime last_print = start;
        r = engine.run_threaded([&](Engine& e) {
            const SimTime now = e.sender().wheel().now();
            if (now - last_print < kSecond) return;
            last_print = now;
            progress(who, now - start, e.sender().metrics(), e.sender().delivered());
        });
    }
    std::printf("%s: %s -- %.2f MB delivered, %llu retx, %llu acks, "
                "%.1f %sms, %llu corrupt\n",
                inproc ? "inproc" : "threads", r.completed ? "completed" : "INCOMPLETE",
                static_cast<double>(r.bytes_delivered) / 1e6,
                (unsigned long long)r.metrics.data_retx,
                (unsigned long long)r.metrics.acks_received, to_seconds(r.elapsed) * 1e3,
                inproc ? "virtual " : "", (unsigned long long)r.payload_mismatches);
    if (p.duplex) {
        std::printf("duplex: %.2f MB reverse, %llu acks piggybacked, "
                    "%llu standalone (%.0f%% piggybacked)\n",
                    static_cast<double>(r.reverse_bytes_delivered) / 1e6,
                    (unsigned long long)r.piggybacked,
                    (unsigned long long)r.standalone_acks, r.piggyback_ratio() * 100);
    }
    if (inproc) std::printf("(same seed => byte-identical rerun; try it)\n");
    return r.completed ? 0 : 1;
}

/// One endpoint of a two-process run: bind --port, connect to --peer.
/// --send and --recv are the classic one-way pair; --duplex transfers
/// in both directions at once.
template <typename Core>
int run_endpoint(const Params& p) {
    net::NetConfig cfg = make_cfg(p);
    const char* role = "sender";
    if (p.duplex) {
        cfg.rx_count = cfg.count;
        role = "duplex";
    } else if (p.mode == Params::Mode::Recv) {
        cfg.rx_count = cfg.count;
        cfg.count = 0;
        role = "receiver";
    }
    net::SteadyClock clock;
    net::TimerWheel wheel(clock);
    net::UdpTransport udp(p.port);
    udp.enable_offload(p.offload);
    udp.connect_peer(p.peer);
    // Distinct impairment streams per side: seed by the local port in
    // duplex mode (the roles are symmetric), by the role otherwise.
    const std::uint64_t salt = p.duplex ? p.port : (cfg.count > 0 ? 0xd1 : 0xac);
    net::Impairer imp(udp, wheel, cfg.impair, runtime::mix_seed(cfg.seed, salt));
    std::printf("%s endpoint on 127.0.0.1:%u -> peer :%u (%.1f MB%s, %.0f%% loss, "
                "offload %s)\n",
                role, udp.local_port(), p.peer, p.mb, p.duplex ? " each way" : "",
                p.loss * 100, net::offload_mode_name(udp.offload_tier()));
    return endpoint_loop<Core>(cfg, clock, wheel, imp, role) ? 0 : 1;
}

/// Multi-session server: every arriving client (tagged conn or plain v1)
/// becomes its own session over the shared reuseport shards, with
/// impairment seeded per session from (seed, conn-id).  Runs until the
/// deadline, printing a per-second census while sessions live and die.
template <typename Core>
int run_serve(const Params& p) {
    net::ServerConfig scfg;
    scfg.session = make_cfg(p);
    // Server sessions sink what clients send (open-ended: the clients
    // decide the length) and originate nothing back.
    scfg.session.rx_count = 1 << 20;
    scfg.session.count = 0;
    // Impairment moves up a level: the server wraps each session's
    // egress, so the session config's own impair spec must not apply.
    scfg.impair = scfg.session.impair;
    scfg.session.impair = {};

    net::SteadyClock clock;
    auto [shard_sockets, port] = net::make_reuseport_shards(p.port, p.shards, p.offload);
    std::vector<net::AddressedTransport*> shards;
    for (const auto& s : shard_sockets) shards.push_back(s.get());
    net::Server<Core> server(scfg, {}, clock, shards);
    std::printf("serving on 127.0.0.1:%u, %zu shard(s), protocol %s, offload %s -- "
                "%zu B chunks, %.0f%% ack-side loss\n",
                port, p.shards, p.proto.c_str(),
                net::offload_mode_name(shard_sockets.front()->offload_tier()), kChunk,
                p.loss * 100);

    std::signal(SIGINT, on_sigint);
    const SimTime start = clock.now();
    SimTime last_print = start;
    std::vector<int> fds;
    std::vector<const net::TimerWheel*> wheels;
    for (std::size_t i = 0; i < shards.size(); ++i) {
        fds.push_back(shards[i]->fd());
        wheels.push_back(&server.shard_wheel(i));
    }
    while (g_interrupted == 0 && clock.now() - start <= p.deadline) {
        if (server.poll() == 0) net::idle_wait(fds, wheels);
        if (clock.now() - last_print >= kSecond) {
            last_print = clock.now();
            const net::ServerStats& st = server.stats();
            std::printf("[serve %5.1fs] sessions=%zu opened=%llu evicted=%llu "
                        "delivered=%llu\n",
                        to_seconds(last_print - start), server.session_count(),
                        (unsigned long long)st.sessions_opened,
                        (unsigned long long)st.sessions_evicted,
                        (unsigned long long)server.protocol_metrics().delivered);
            std::fflush(stdout);
        }
    }

    std::signal(SIGINT, SIG_DFL);  // a second ^C kills for real
    if (g_interrupted != 0) std::printf("^C -- final census:\n");

    std::uint64_t bytes = 0;
    std::uint64_t mismatches = 0;
    for (const net::SessionView& v : server.sessions()) {
        bytes += v.bytes_delivered;
        mismatches += v.payload_mismatches;
    }
    const net::ServerStats& st = server.stats();
    std::printf("server: %llu sessions opened (%llu evicted, %llu reset), "
                "%llu delivered / %.2f MB still resident, "
                "%.1f datagrams per sendmmsg -- payloads %s\n",
                (unsigned long long)st.sessions_opened,
                (unsigned long long)st.sessions_evicted,
                (unsigned long long)st.sessions_reset,
                (unsigned long long)server.protocol_metrics().delivered,
                static_cast<double>(bytes) / 1e6,
                server.transport_metrics().datagrams_per_send_syscall(),
                mismatches == 0 ? "INTACT" : "CORRUPT");
    return mismatches == 0 ? 0 : 1;
}

template <typename Core, typename Engine>
int dispatch_mode(const Params& p) {
    switch (p.mode) {
        case Params::Mode::Send:
        case Params::Mode::Recv: return run_endpoint<Core>(p);
        case Params::Mode::Serve: return run_serve<Core>(p);
        default: return run_engine<Engine>(p);
    }
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--mb N] [--loss P] [--seed S] [--deadline-ms MS]\n"
                 "          [--w N] [--timeout-mode simple|per-message|oracle-simple|\n"
                 "                                  oracle-per-message]\n"
                 "          [--proto ba|ba-bounded|ba-hole|abp|gbn|sr|tc] [--inproc]\n"
                 "          [--offload auto|mmsg|gso]\n"
                 "          [--duplex [--no-piggyback] [--pb-delay-ms MS]]\n"
                 "          [--send|--recv|--duplex --port P --peer P]\n"
                 "          [--serve --port P [--shards N]]\n",
                 argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Params p;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--inproc") {
            p.mode = Params::Mode::Inproc;
        } else if (arg == "--send") {
            p.mode = Params::Mode::Send;
        } else if (arg == "--recv") {
            p.mode = Params::Mode::Recv;
        } else if (arg == "--duplex") {
            p.duplex = true;
        } else if (arg == "--no-piggyback") {
            p.piggyback = false;
        } else if (arg == "--pb-delay-ms") {
            if (const char* v = next()) p.pb_delay_ms = std::atof(v);
            else return usage(argv[0]);
        } else if (arg == "--serve") {
            p.mode = Params::Mode::Serve;
        } else if (arg == "--shards") {
            if (const char* v = next()) p.shards = std::strtoull(v, nullptr, 10);
            else return usage(argv[0]);
        } else if (arg == "--mb") {
            if (const char* v = next()) p.mb = std::atof(v); else return usage(argv[0]);
        } else if (arg == "--loss") {
            if (const char* v = next()) p.loss = std::atof(v); else return usage(argv[0]);
        } else if (arg == "--seed") {
            if (const char* v = next()) p.seed = std::strtoull(v, nullptr, 10);
            else return usage(argv[0]);
        } else if (arg == "--deadline-ms") {
            if (const char* v = next()) p.deadline = std::atoll(v) * kMillisecond;
            else return usage(argv[0]);
        } else if (arg == "--w") {
            if (const char* v = next()) p.w = static_cast<Seq>(std::strtoull(v, nullptr, 10));
            else return usage(argv[0]);
        } else if (arg == "--timeout-mode") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            p.timeout_mode = parse_timeout_mode(v);
            if (!p.timeout_mode) return usage(argv[0]);
        } else if (arg == "--proto") {
            if (const char* v = next()) p.proto = v; else return usage(argv[0]);
        } else if (arg == "--offload") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            const auto parsed = net::parse_offload_mode(v);
            if (!parsed) return usage(argv[0]);
            p.offload = *parsed;
        } else if (arg == "--port") {
            if (const char* v = next()) p.port = static_cast<std::uint16_t>(std::atoi(v));
            else return usage(argv[0]);
        } else if (arg == "--peer") {
            if (const char* v = next()) p.peer = static_cast<std::uint16_t>(std::atoi(v));
            else return usage(argv[0]);
        } else {
            return usage(argv[0]);
        }
    }
    // --duplex with a bound port is the two-process endpoint shape; the
    // Send/Recv modes share that path.
    if (p.duplex && p.port != 0) p.mode = Params::Mode::Send;
    if ((p.mode == Params::Mode::Send || p.mode == Params::Mode::Recv) &&
        (p.port == 0 || p.peer == 0)) {
        std::fprintf(stderr, "--send/--recv/--duplex need --port and --peer\n");
        return usage(argv[0]);
    }

    if (p.mode == Params::Mode::Threads) {
        std::printf("udp_transfer: %.1f MB%s as %llu x %zu B over loopback UDP, "
                    "%.0f%% loss impairment, protocol %s%s\n",
                    p.mb, p.duplex ? " each way" : "",
                    (unsigned long long)make_cfg(p).count, kChunk, p.loss * 100,
                    p.proto.c_str(), p.duplex && p.piggyback ? ", piggybacked acks" : "");
    }

    if (p.proto == "ba-bounded") {
        return dispatch_mode<ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>,
                             net::BoundedBaNetEngine>(p);
    }
    if (p.proto == "ba-hole") {
        return dispatch_mode<ba::EngineCore<ba::HoleReuseSender, ba::Receiver>,
                             net::HoleReuseNetEngine>(p);
    }
    if (p.proto == "abp") {
        return dispatch_mode<baselines::AbpCore, net::AbpNetEngine>(p);
    }
    if (p.proto == "gbn") {
        return dispatch_mode<baselines::GbnCore, net::GbnNetEngine>(p);
    }
    if (p.proto == "sr") {
        return dispatch_mode<baselines::SrCore, net::SrNetEngine>(p);
    }
    if (p.proto == "tc") {
        return dispatch_mode<baselines::TcCore, net::TcNetEngine>(p);
    }
    if (p.proto != "ba") return usage(argv[0]);
    return dispatch_mode<ba::EngineCore<ba::Sender, ba::Receiver>, net::BaNetEngine>(p);
}
