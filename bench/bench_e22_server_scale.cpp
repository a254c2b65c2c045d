// E22 -- server scale: connection-multiplexed sessions over shared sockets.
//
// E19/E21 established what one endpoint pair gets from the batch
// transport.  This bench asks whether those economics survive
// multiplexing: N real loopback UDP clients, each a full NetEndpoint
// running the block-ack protocol, against one net::Server whose
// SO_REUSEPORT shards demux every arriving datagram to its session and
// coalesce all sessions' acks into shared sendmmsg flushes.
//
// The sweep holds *total offered load* constant (sessions x messages =
// const) and scales the session count from 1 to 1000+, so the headline
// ratio is directly "what does multiplexing cost": aggregate goodput at
// 1000 sessions over the single-session rate for the same bytes.
// Reported per point: aggregate goodput, server-side datagrams per
// syscall, p99 send-to-accept ack latency (merged across every client's
// driver histogram), bytes per session, and steady-state allocations
// per received datagram under the same counting-allocator hook as
// E20/E21 -- the second half of each run must not allocate at all once
// arenas, slabs, stashes, and session tables reach high-water mark.
//
//   --quick            smaller sweep (CI smoke; same gate)
//   E22_ALLOC_PROBE=1  (env) dump backtraces of every steady-state
//                      allocation to stderr -- how a budget regression
//                      is localized without a debugger
//   --check-budget X   exit nonzero when steady-state allocs per received
//                      datagram exceed X at any multi-session point
//   --sessions N       override the largest session count
//   --shards N         server shard (socket + wheel) count, default 4
//   --offload MODE     transport offload tier for the server shards and
//                      the clients: auto (default; GSO sends so the
//                      server's GRO coalesces), mmsg, gso --
//                      unavailable tiers fall back per resolve_offload

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ba/engine_core.hpp"
#include "common/histogram.hpp"
#include "json_out.hpp"
#include "net/clock.hpp"
#include "net/net_engine.hpp"
#include "net/offload.hpp"
#include "net/server.hpp"
#include "net/transport.hpp"
#include "workload/report.hpp"

// ---- counting allocator hook (same scheme as E20/E21) ----------------------

#include <execinfo.h>

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_trace{false};

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

// Debug-only call-site capture: after the steady-state snap, record the
// backtrace of every allocation into a fixed table (no allocation).
constexpr std::size_t kTraceSlots = 64;
constexpr int kTraceDepth = 10;
struct TraceSlot {
    void* frames[kTraceDepth] = {};
    int depth = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<bool> used{false};
};
TraceSlot g_slots[kTraceSlots];

void record_trace() {
    void* frames[kTraceDepth];
    const int depth = backtrace(frames, kTraceDepth);
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 2; i < depth; ++i) {
        h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) * 1099511628211ULL;
    }
    for (std::size_t probe = 0; probe < kTraceSlots; ++probe) {
        TraceSlot& s = g_slots[(h + probe) % kTraceSlots];
        if (s.used.load(std::memory_order_acquire)) {
            if (s.depth == depth &&
                std::memcmp(s.frames, frames, sizeof(void*) * depth) == 0) {
                s.hits.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            continue;
        }
        bool expected = false;
        if (s.used.compare_exchange_strong(expected, true)) {
            std::memcpy(s.frames, frames, sizeof(void*) * depth);
            s.depth = depth;
            s.hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

void dump_traces() {
    for (TraceSlot& s : g_slots) {
        if (!s.used.load(std::memory_order_acquire)) continue;
        std::fprintf(stderr, "---- %llu allocs from:\n",
                     static_cast<unsigned long long>(s.hits.load()));
        backtrace_symbols_fd(s.frames, s.depth, 2);
    }
}
}  // namespace

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (g_trace.load(std::memory_order_relaxed)) {
        g_trace.store(false, std::memory_order_relaxed);
        record_trace();
        g_trace.store(true, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) &
                                         ~(static_cast<std::size_t>(align) - 1))) {
        return p;
    }
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ::operator delete(p); }

// ---- the bench -------------------------------------------------------------

using namespace bacp;
using namespace bacp::net;

namespace {

using Core = ba::EngineCore<ba::Sender, ba::Receiver>;

constexpr std::size_t kPayload = 512;
constexpr Seq kWindow = 16;
// The paper's send horizon caps each session at w messages per assumed
// channel lifetime; loopback transit is microseconds, so a 1 ms bound
// keeps the protocol honest without rate-limiting the bench.
constexpr SimTime kLifetime = 1 * kMillisecond;
// Explicit retransmission timeout, decoupled from the lifetime: the
// derived bound (~2L) is shorter than one round-robin pass over
// hundreds of clients in this single-threaded driver, and a timeout
// below the scheduling latency retransmits every message spuriously.
constexpr SimTime kTimeout = 100 * kMillisecond;
// Frames are kPayload + ~30 B of header/varints/CRC; a tight arena
// stride is what keeps per-shard receive arenas cheap at scale.
constexpr std::size_t kMaxFrame = kPayload + 128;

double now_sec() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct ScaleResult {
    std::size_t sessions = 0;
    Seq count_per_session = 0;
    bool completed = false;
    double wall_sec = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t delivered = 0;
    double dgrams_per_syscall = 0;   // server sockets only: real crossings
    double steady_allocs_per_dgram = 0;
    std::int64_t p99_latency_ns = 0;
    Metrics server_transport;
    ServerStats server_stats;
    sim::Metrics server_protocol;   // summed across sessions
    sim::Metrics client_protocol;   // summed across clients

    double goodput_mbps() const {
        if (wall_sec <= 0) return 0;
        return static_cast<double>(bytes_delivered) * 8.0 / wall_sec / 1e6;
    }
    double bytes_per_session() const {
        if (sessions == 0) return 0;
        return static_cast<double>(bytes_delivered) / static_cast<double>(sessions);
    }
};

struct Client {
    std::unique_ptr<UdpTransport> transport;
    std::unique_ptr<TimerWheel> wheel;
    std::unique_ptr<NetEndpoint<Core>> sender;
};

/// One full point: \p sessions concurrent transfers of \p count messages
/// each, all sharing the server's \p shards reuseport sockets.
ScaleResult run_point(std::size_t sessions, Seq count, std::size_t shards,
                      OffloadMode offload) {
    ScaleResult out;
    out.sessions = sessions;
    out.count_per_session = count;

    SteadyClock clock;
    auto [shard_sockets, port] = make_reuseport_shards(0, shards, offload);
    std::vector<AddressedTransport*> shard_ptrs;
    for (const auto& s : shard_sockets) shard_ptrs.push_back(s.get());

    ServerConfig scfg;
    scfg.session.w = kWindow;
    scfg.session.rx_count = count;
    scfg.session.payload_size = kPayload;
    scfg.session.max_datagram = kMaxFrame;
    scfg.session.link_lifetime = kLifetime;
    scfg.session.timeout = kTimeout;
    scfg.session.seed = 11;
    scfg.recv_batch = 512;
    Server<Core> server(scfg, {}, clock, shard_ptrs);

    std::vector<Client> clients;
    clients.reserve(sessions);
    for (std::size_t i = 0; i < sessions; ++i) {
        NetConfig cfg;
        cfg.w = kWindow;
        cfg.count = count;
        cfg.payload_size = kPayload;
        cfg.max_datagram = kMaxFrame;
        cfg.link_lifetime = kLifetime;
        cfg.timeout = kTimeout;
        cfg.seed = 11;
        cfg.conn = wire::Conn{static_cast<Seq>(i + 1), 1};
        Client c;
        c.transport = std::make_unique<UdpTransport>();
        c.transport->enable_offload(offload);
        c.transport->connect_peer(port);
        c.wheel = std::make_unique<TimerWheel>(clock);
        c.sender = std::make_unique<NetEndpoint<Core>>(cfg, typename Core::Options{},
                                                     *c.wheel, *c.transport);
        clients.push_back(std::move(c));
    }
    for (Client& c : clients) c.sender->start();

    const std::uint64_t total = static_cast<std::uint64_t>(sessions) * count;
    const std::uint64_t half = total / 2;
    std::uint64_t allocs_at_half = 0;
    std::uint64_t dgrams_at_half = 0;
    bool snapped = false;

    const auto client_dgrams_received = [&clients] {
        std::uint64_t n = 0;
        for (const Client& c : clients) n += c.transport->stats().datagrams_received;
        return n;
    };
    // Allocation-free progress probe: the driver's ack-latency histogram
    // counts exactly the messages the sender has retired.
    const auto acked_total = [&clients] {
        std::uint64_t n = 0;
        for (const Client& c : clients) n += c.sender->metrics().ack_latency.count();
        return n;
    };
    const auto sent_total = [&clients, &server] {
        std::uint64_t n = server.transport_metrics().datagrams_sent;
        for (const Client& c : clients) n += c.transport->stats().datagrams_sent;
        return n;
    };

    const double start = now_sec();
    const double deadline = start + 120.0;
    std::uint64_t last_sent = 0;
    for (;;) {
        // Interleave server polls between client slices so shard socket
        // buffers never back up behind a long client sweep.
        std::size_t done = 0;
        std::size_t work = 0;
        for (std::size_t i = 0; i < clients.size(); ++i) {
            if ((i & 31u) == 0) work += server.poll();
            work += clients[i].sender->poll();
            if (clients[i].sender->done()) ++done;
        }
        work += server.poll();
        if (!snapped && acked_total() >= half) {
            allocs_at_half = allocs_now();
            dgrams_at_half =
                server.transport_metrics().datagrams_received + client_dgrams_received();
            snapped = true;
            if (std::getenv("E22_ALLOC_PROBE")) {
                void* prime[2];
                backtrace(prime, 2);  // libgcc lazy-init allocates; do it now
                g_trace.store(true, std::memory_order_relaxed);
            }
        }
        if (done == clients.size()) {
            out.completed = true;
            break;
        }
        if (now_sec() > deadline) break;
        // An idle round with nothing newly in flight means everyone is
        // waiting on a timer (the send-horizon tick, usually).  Sleep to
        // the earliest deadline instead of burning empty recv probes.
        const std::uint64_t sent_now = sent_total();
        if (work == 0 && sent_now == last_sent) {
            std::optional<SimTime> next;
            const auto consider = [&next](std::optional<SimTime> d) {
                if (d && (!next || *d < *next)) next = d;
            };
            for (std::size_t i = 0; i < server.shard_count(); ++i) {
                consider(server.shard_wheel(i).next_deadline());
            }
            for (Client& c : clients) consider(c.sender->wheel().next_deadline());
            if (next) {
                const SimTime gap = *next - clock.now();
                if (gap > 0) {
                    std::this_thread::sleep_for(std::chrono::nanoseconds(
                        std::min<SimTime>(gap, 2 * kMillisecond)));
                }
            }
        }
        last_sent = sent_now;
    }
    out.wall_sec = now_sec() - start;
    if (g_trace.exchange(false, std::memory_order_relaxed)) dump_traces();

    const std::uint64_t dgrams_end =
        server.transport_metrics().datagrams_received + client_dgrams_received();
    if (snapped && dgrams_end > dgrams_at_half) {
        out.steady_allocs_per_dgram =
            static_cast<double>(allocs_now() - allocs_at_half) /
            static_cast<double>(dgrams_end - dgrams_at_half);
    }

    out.server_transport = server.transport_metrics();
    out.server_stats = server.stats();
    out.server_protocol = server.protocol_metrics();
    for (const Client& c : clients) {
        const sim::Metrics& m = c.sender->metrics();
        out.client_protocol.data_new += m.data_new;
        out.client_protocol.data_retx += m.data_retx;
        out.client_protocol.acks_received += m.acks_received;
    }
    // The send side is the multiplexing claim: every session's acks
    // coalesced into shared sendmmsg flushes.  (Receive-side probes are
    // dominated by idle polls in a single-threaded driver and stay in
    // the JSON rather than the headline.)
    out.dgrams_per_syscall = out.server_transport.datagrams_per_send_syscall();

    Histogram latency(5);
    for (const Client& c : clients) latency.merge(c.sender->metrics().ack_latency);
    out.p99_latency_ns = latency.quantile(0.99);

    for (const SessionView& v : server.sessions()) {
        out.bytes_delivered += v.bytes_delivered;
        out.delivered += v.delivered;
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double budget = -1;
    std::size_t shards = 4;
    std::size_t max_sessions = 0;
    OffloadMode offload = OffloadMode::Auto;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check-budget") == 0 && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
            max_sessions = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
            shards = static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (std::strcmp(argv[i], "--offload") == 0 && i + 1 < argc) {
            const auto parsed = parse_offload_mode(argv[++i]);
            if (!parsed) {
                std::fprintf(stderr, "unknown --offload mode '%s'\n", argv[i]);
                return 2;
            }
            offload = *parsed;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--check-budget X] [--sessions N] "
                         "[--shards N] [--offload auto|mmsg|gso]\n",
                         argv[0]);
            return 2;
        }
    }
    if (max_sessions == 0) max_sessions = quick ? 128 : 1000;
    // Equal offered load across the sweep: sessions x count = total.
    const std::uint64_t total_msgs = quick ? 6400 : 40000;

    const OffloadMode tier = resolve_offload(offload);
    std::printf("E22: server scale, %zu shard(s), %llu x %zu B total per point\n"
                "     (real loopback UDP; every client a full NetEndpoint, every\n"
                "      session demuxed off the shared reuseport sockets;\n"
                "      offload %s -> tier %s)\n\n",
                shards, static_cast<unsigned long long>(total_msgs), kPayload,
                offload_mode_name(offload), offload_mode_name(tier));

    std::vector<std::size_t> sweep{1};
    if (max_sessions >= 100) sweep.push_back(max_sessions / 10);
    sweep.push_back(max_sessions);

    workload::Table table({"sessions", "msgs/session", "goodput", "acks/sendmmsg",
                           "p99 ack", "KiB/session", "steady allocs/dgram", "done"});
    bench::Json points = bench::Json::array();
    bool over_budget = false;
    bool incomplete = false;
    double single_goodput = 0;
    double top_goodput = 0;
    double top_ratio = 0;

    for (const std::size_t sessions : sweep) {
        const Seq count = static_cast<Seq>(total_msgs / sessions);
        const ScaleResult r = run_point(sessions, count, shards, offload);
        incomplete = incomplete || !r.completed;
        if (sessions == 1) single_goodput = r.goodput_mbps();
        if (sessions == max_sessions) {
            top_goodput = r.goodput_mbps();
            top_ratio = r.dgrams_per_syscall;
        }
        table.add_row({std::to_string(sessions), std::to_string(count),
                       workload::fmt(r.goodput_mbps(), 0) + " Mbit/s",
                       workload::fmt(r.dgrams_per_syscall, 2),
                       workload::fmt(static_cast<double>(r.p99_latency_ns) / 1e3, 0) +
                           " us",
                       workload::fmt(r.bytes_per_session() / 1024.0, 1),
                       workload::fmt(r.steady_allocs_per_dgram, 6),
                       r.completed ? "yes" : "NO"});
        points.push(
            bench::Json::object()
                .set("sessions", bench::Json::num(static_cast<std::uint64_t>(sessions)))
                .set("count_per_session",
                     bench::Json::num(static_cast<std::uint64_t>(count)))
                .set("completed", bench::Json::boolean(r.completed))
                .set("goodput_mbps", bench::Json::num(r.goodput_mbps()))
                .set("dgrams_per_syscall", bench::Json::num(r.dgrams_per_syscall))
                .set("p99_ack_latency_ns",
                     bench::Json::num(static_cast<std::uint64_t>(r.p99_latency_ns)))
                .set("bytes_per_session", bench::Json::num(r.bytes_per_session()))
                .set("steady_allocs_per_datagram",
                     bench::Json::num(r.steady_allocs_per_dgram))
                .set("server_transport", bench::counters_json(r.server_transport))
                .set("server_stats", bench::counters_json(r.server_stats))
                .set("server_protocol", bench::counters_json(r.server_protocol))
                .set("client_protocol", bench::counters_json(r.client_protocol)));
        if (budget >= 0 && sessions > 1 && r.steady_allocs_per_dgram > budget) {
            over_budget = true;
        }
    }

    table.print("E22: equal offered load, 1 session vs thousands");

    const double retained = single_goodput > 0 ? top_goodput / single_goodput : 0;
    std::printf("\n%zu sessions: %.0f Mbit/s aggregate = %.0f%% of the single-session "
                "rate for the same bytes, %.2f acks per server sendmmsg\n",
                max_sessions, top_goodput, retained * 100, top_ratio);

    bench::BenchOutput out("e22_server_scale");
    out.meta("total_messages", bench::Json::num(total_msgs))
        .meta("payload_bytes", bench::Json::num(static_cast<std::uint64_t>(kPayload)))
        .meta("shards", bench::Json::num(static_cast<std::uint64_t>(shards)))
        .meta("offload_requested", bench::Json::str(offload_mode_name(offload)))
        .meta("offload_tier", bench::Json::str(offload_mode_name(tier)))
        .meta("quick", bench::Json::boolean(quick))
        .meta("goodput_retained_at_scale", bench::Json::num(retained))
        .meta("points", std::move(points))
        .add_table("server scale sweep", table);
    if (!out.write()) std::printf("warning: could not write BENCH_e22 output files\n");

    if (budget >= 0) {
        std::printf("budget gate: steady allocs/dgram <= %g: %s\n", budget,
                    over_budget ? "FAIL" : "ok");
        if (incomplete) std::printf("budget gate: a point did not complete: FAIL\n");
        if (over_budget || incomplete) return 1;
    }
    std::printf("Machine-readable copies: BENCH_e22_server_scale.{json,csv}\n");
    return 0;
}
