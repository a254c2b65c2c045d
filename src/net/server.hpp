#pragma once

/// \file server.hpp
/// Multi-session server: connection-multiplexed endpoint sessions over
/// shared sockets.
///
/// NetEngine pairs one endpoint with one socket -- the right shape for
/// measuring a protocol, the wrong one for serving at scale.  Server
/// inverts the ownership: N *shards* (event loops) each own one shared
/// socket, one TimerWheel, one receive arena, and a disjoint slice of a
/// flat session table keyed by (peer address, connection id).  Sessions
/// are passive: a session is a DuplexDriver adapter (NetEndpoint)
/// with no thread, no socket, and no receive arena of its own -- the
/// shard demuxes arriving datagrams to it (each decoded exactly once,
/// as a zero-copy FrameView) and collects its egress.
///
/// The batching economics that bench_e19/e21 bought survive
/// multiplexing by construction:
///   ingress  recvmmsg fills the shard arena; demux is a hash
///            lookup per datagram, allocation-free.
///   egress   each session's port (SharedBatchPort) encodes its frames
///            straight onto the *shard's* AddressedSendBatch; the shard
///            pushes the whole tick's frames -- interleaved across every
///            session that spoke -- through one sendmmsg.
///
/// Sharding is SO_REUSEPORT-style: all shard sockets bind one port and
/// the kernel hashes each client's source address to exactly one of
/// them, so a session's frames always arrive on the same shard and the
/// per-shard state needs no locks.  (The InprocHub used by tests is the
/// single-shard degenerate case of the same topology.)  Sessions are
/// full duplex: with session.count > 0 each one also originates data
/// back to its peer through the same shard egress, acks piggybacking on
/// that reverse DATA when session.piggyback is set.
///
/// Lifecycle: sessions open implicitly on the first frame from an
/// unknown (peer, conn); a frame with a *higher* epoch resets the
/// session (peer restarted -- fresh driver state, stale frames of the
/// old incarnation are dropped by their lower epoch); idle sessions are
/// evicted by a periodic sweep.  Teardown is destructor-driven: the
/// driver, its OneShot timers, and the per-session Impairer all cancel
/// their wheel timers on destruction, so eviction can never leave a
/// closure that fires into freed memory.  Frames from v1 (single
/// session) peers carry no connection tag and map to conn id 0 with v1
/// untagged replies -- the backward-compatibility contract of
/// PROTOCOL.md §9.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_table.hpp"
#include "common/metrics_table.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/impairer.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "runtime/session_util.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Server-wide knobs on top of the per-session protocol surface.  One
/// aggregate covers everything that used to arrive through positional
/// arguments and helper calls: shard/socket topology, session-table
/// sizing, idle eviction, memory budgets, and impairment seeding.
struct ServerConfig {
    /// Per-session protocol configuration (window, rx_count, timeout
    /// mode, payload size, base seed...).  Each session gets a copy with
    /// its connection tag and sub-seed applied (`batch` is unused).
    /// Sessions are duplex endpoints: rx_count is what each session
    /// expects to sink from its peer, count what it originates back
    /// (default 0 -- a classic sink-only server).
    NetConfig session;
    /// Shard (event loop + socket) count for the socket-owning
    /// constructor; the transport-vector constructor takes one shard
    /// per supplied transport instead.
    std::size_t shards = 1;
    /// UDP port for the socket-owning constructor (0 = ephemeral; read
    /// the result from port()).
    std::uint16_t port = 0;
    /// Kernel-offload tier the shard sockets run.
    OffloadMode offload = OffloadMode::Mmsg;
    /// Socket buffer request per shard socket.  Hundreds of sessions
    /// hash to each shard; synchronized window bursts overflow default
    /// buffers long before the protocol is the bottleneck.
    std::size_t socket_buffer = std::size_t{4} << 20;
    /// Evict a session after this much silence.
    SimTime idle_timeout = 5 * kSecond;
    /// How often each shard scans its slice for idle sessions.
    SimTime sweep_interval = 500 * kMillisecond;
    /// Shard receive-arena capacity (datagrams per recvmmsg).
    std::size_t recv_batch = 256;
    /// Hard cap on sessions per shard; first frames beyond it are
    /// rejected (counted, like any other load shedding) unless
    /// evict_on_pressure frees a victim first.
    std::size_t max_sessions = 1 << 16;
    /// Per-shard session-memory budget in bytes (0 = uncapped).  The
    /// effective shard cap is min(max_sessions, budget / footprint)
    /// where the footprint counts the session record, driver, fed
    /// latency histograms and the w-sized payload stash --
    /// out-of-order caching is a budgeted resource, not an implicit
    /// per-session given.
    std::size_t arena_budget = 0;
    /// At the cap, evict the least-recently-active session to admit a
    /// new peer (LRU-ish, sampled) instead of rejecting it.
    bool evict_on_pressure = true;
    /// Ack-direction impairment applied per session, seeded from
    /// (session.seed, conn id) so multi-session runs replay exactly.
    ImpairSpec impair;

    /// Server sessions sink by default; originating traffic back to the
    /// peer is the explicit opt-in (session.count > 0).
    ServerConfig() { session.count = 0; }

    bool impaired() const {
        return impair.loss > 0 || impair.dup > 0 || impair.reorder > 0 ||
               impair.delay_hi > 0 || !impair.scripted_drops.empty();
    }
};

/// Session-lifecycle counters, tabled through common/metrics_table.hpp
/// (the same machinery sim::Metrics and net::Metrics use) so bench
/// emitters serialize them identically.
struct ServerStats {
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_evicted = 0;    // idle sweep
    std::uint64_t sessions_reset = 0;      // epoch bumps observed
    std::uint64_t stale_epoch_drops = 0;   // frames from dead incarnations
    std::uint64_t sessions_rejected = 0;   // table at cap, no victim freed
    /// Sessions evicted under memory pressure: the shard hit its
    /// session cap (max_sessions or arena_budget) and the LRU-ish
    /// victim sampler freed room for a new peer.
    std::uint64_t sessions_pressure_evicted = 0;
    std::uint64_t decode_errors = 0;       // pre-demux rejects
    std::uint64_t crc_errors = 0;
    /// Kernel-offload tier the shard sockets run (OffloadMode numeric
    /// value: 0 mmsg, 1 gso).  Merged by max -- shards share
    /// one kernel, so mixed tiers only appear after a runtime demotion.
    std::uint64_t offload_tier = 0;

    using Field = MetricsField;
    static constexpr std::size_t kFieldCount = 9;

    static constexpr std::array<CounterDef<ServerStats>, kFieldCount> kCounters = {{
        {"sessions_opened", &ServerStats::sessions_opened},
        {"sessions_evicted", &ServerStats::sessions_evicted},
        {"sessions_reset", &ServerStats::sessions_reset},
        {"stale_epoch_drops", &ServerStats::stale_epoch_drops},
        {"sessions_rejected", &ServerStats::sessions_rejected},
        {"sessions_pressure_evicted", &ServerStats::sessions_pressure_evicted},
        {"decode_errors", &ServerStats::decode_errors},
        {"crc_errors", &ServerStats::crc_errors},
        {"offload_tier", &ServerStats::offload_tier},
    }};

    ServerStats& operator+=(const ServerStats& o) {
        // Every row sums except the tier, which merges by max; redo it
        // after the tabled accumulation.
        const std::uint64_t tier = std::max(offload_tier, o.offload_tier);
        add_counters(*this, o, kCounters);
        offload_tier = tier;
        return *this;
    }

    std::array<Field, kFieldCount> fields() const { return counter_fields(*this, kCounters); }

    std::string to_json() const { return fields_json(fields()); }
};

/// Flat session-table key: which peer socket, which connection at it.
struct SessionKey {
    std::uint64_t peer = 0;  // PeerAddr::key()
    Seq conn = 0;

    friend bool operator==(const SessionKey&, const SessionKey&) = default;
};

struct SessionKeyHash {
    std::size_t operator()(const SessionKey& k) const {
        std::uint64_t x = k.peer ^ (k.conn * 0x9E3779B97F4A7C15ULL);
        return static_cast<std::size_t>(splitmix64(x));
    }
};

/// Read-only snapshot of one session, for reporting and tests.
struct SessionView {
    PeerAddr peer;
    Seq conn = 0;
    Seq epoch = 0;
    Seq delivered = 0;
    std::uint64_t bytes_delivered = 0;
    std::uint64_t payload_mismatches = 0;
    Metrics transport;  // this incarnation's sends (+ impairment decisions if any)
    sim::Metrics protocol;  // driver counters (NetEndpoint::metrics())
};

std::pair<std::vector<std::unique_ptr<UdpTransport>>, std::uint16_t> inline make_reuseport_shards(
    std::uint16_t port, std::size_t shards, OffloadMode offload = OffloadMode::Mmsg,
    std::size_t socket_buffer = std::size_t{4} << 20);

template <runtime::EndpointCore Core>
class Server {
public:
    using Options = typename Core::Options;

    /// Socket-owning constructor: binds cfg.shards SO_REUSEPORT sockets
    /// on cfg.port (0 = ephemeral; see port()) at cfg.offload, sized by
    /// cfg.socket_buffer.  The whole construction surface is the one
    /// ServerConfig aggregate.
    Server(ServerConfig cfg, Options options, Clock& clock)
        : Server(make_reuseport_shards(cfg.port, cfg.shards, cfg.offload, cfg.socket_buffer),
                 std::move(cfg), std::move(options), clock) {}

    /// One shard per entry of \p shard_transports (not owned; must
    /// outlive the server).  All shards share \p clock; each owns its
    /// TimerWheel, arena, egress batch, and session-table slice.  Tests
    /// and in-process topologies (InprocHub) supply their transports
    /// here; cfg.shards/port/offload/socket_buffer are ignored.
    Server(ServerConfig cfg, Options options, Clock& clock,
           std::vector<AddressedTransport*> shard_transports)
        : cfg_(std::move(cfg)), options_(std::move(options)) {
        BACP_ASSERT_MSG(!shard_transports.empty(), "server needs at least one shard");
        shard_cap_ = shard_session_cap();
        shards_.reserve(shard_transports.size());
        for (AddressedTransport* transport : shard_transports) {
            auto shard = std::make_unique<Shard>(cfg_.recv_batch);
            shard->transport = transport;
            shard->wheel = std::make_unique<TimerWheel>(clock);
            shard->rx.reshape(cfg_.recv_batch, cfg_.session.max_datagram);
            // Warm the session table toward its cap without paying the
            // full worst case up front: growth doubles from here, and
            // once high water is reached steady state never allocates.
            shard->sessions.reserve(std::min<std::size_t>(shard_cap_, 1024));
            shards_.push_back(std::move(shard));
        }
    }

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    std::size_t shard_count() const { return shards_.size(); }

    /// Bound UDP port (socket-owning constructor only; 0 otherwise).
    std::uint16_t port() const { return port_; }

    /// Effective per-shard session cap after the arena budget.
    std::size_t session_cap() const { return shard_cap_; }

    /// One event-loop iteration of shard \p idx: fire its wheel, drain
    /// its socket through drain_ingress() (one step per datagram, held
    /// block acks sent once per arena), flush the tick's egress as one
    /// addressed batch, and periodically sweep for idle sessions.  Each
    /// shard must be polled by one thread only; distinct shards may be
    /// polled concurrently.
    std::size_t poll_shard(std::size_t idx) {
        Shard& s = *shards_[idx];
        const std::size_t fired = s.wheel->fire_due();
        std::size_t work = fired;
        if (fired > 0 && cfg_.impaired()) {
            // Matured delayed copies were staged by the wheel; push each
            // session's coalesced group into the shard batch.
            s.sessions.for_each([](const SessionKey&, Session& session) {
                Impairer* impairer = session.endpoint->port().impairer();
                if (impairer != nullptr && impairer->has_staged()) impairer->flush();
            });
        }
        work += drain_ingress(*s.transport, s.rx, *s.wheel, &s.held_acks,
                              {&s.stats.decode_errors, &s.stats.crc_errors},
                              [this, &s](PeerAddr peer, const wire::FrameView& frame) {
                                  demux(s, peer, frame);
                              });
        s.tx.flush(*s.transport);
        const SimTime now = s.wheel->now();
        if (now >= s.next_sweep) {
            work += sweep(s, now);
            s.next_sweep = now + cfg_.sweep_interval;
        }
        return work;
    }

    /// Polls every shard once from the calling thread (the
    /// deterministic single-thread mode tests and ManualClock runs use).
    std::size_t poll() {
        std::size_t work = 0;
        for (std::size_t i = 0; i < shards_.size(); ++i) work += poll_shard(i);
        return work;
    }

    /// Runs one event-loop thread per shard until \p stop becomes true.
    /// Idle shards sleep in idle_wait() on their socket and wheel, so
    /// timers stay on schedule without busy-waiting.
    void run_threads(const std::atomic<bool>& stop) {
        std::vector<std::thread> threads;
        threads.reserve(shards_.size());
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            threads.emplace_back([this, i, &stop] {
                Shard& s = *shards_[i];
                const int fds[] = {s.transport->fd()};
                const TimerWheel* const wheels[] = {s.wheel.get()};
                while (!stop.load(std::memory_order_relaxed)) {
                    if (poll_shard(i) == 0) idle_wait(fds, wheels);
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }

    /// Total sessions currently open, across shards.
    std::size_t session_count() const {
        std::size_t n = 0;
        for (const auto& s : shards_) n += s->sessions.size();
        return n;
    }

    /// Summed lifecycle counters, plus the offload tier the shard
    /// sockets actually run (reflecting any runtime demotion).
    ServerStats stats() const {
        ServerStats total;
        for (const auto& s : shards_) {
            total += s->stats;
            total.offload_tier = std::max(
                total.offload_tier,
                static_cast<std::uint64_t>(s->transport->offload_tier()));
        }
        return total;
    }

    /// Shard-socket counters only: real boundary crossings.  This is
    /// where the dgrams/syscall amortization gate reads from.
    Metrics transport_metrics() const {
        Metrics total;
        for (const auto& s : shards_) total += s->transport->stats();
        return total;
    }

    /// Merged view: shard sockets plus every session's send and impair
    /// counters (evicted and reset incarnations drained into the shard),
    /// so each datagram counts twice: read ratios from transport_metrics().
    Metrics merged_metrics() const {
        Metrics total = transport_metrics();
        for (const auto& s : shards_) {
            total += s->drained;
            s->wheel->add_stats(total);  // shard expiry batching (E22 JSON)
            s->sessions.for_each([&total](const SessionKey&, const Session& session) {
                total += session_transport(session);
            });
        }
        return total;
    }

    /// Per-session protocol counters, summed over both halves of every
    /// live session.
    sim::Metrics protocol_metrics() const {
        sim::Metrics total;
        for (const auto& s : shards_) {
            s->sessions.for_each([&total](const SessionKey&, const Session& session) {
                total.add_counters_from(session.endpoint->tx_metrics());
                total.add_counters_from(session.endpoint->rx_metrics());
            });
        }
        return total;
    }

    /// Snapshot of every live session (not the hot path: allocates).
    std::vector<SessionView> sessions() const {
        std::vector<SessionView> views;
        views.reserve(session_count());
        for (const auto& s : shards_) {
            s->sessions.for_each([&views](const SessionKey&, const Session& session) {
                SessionView v;
                v.peer = session.peer;
                v.conn = session.conn;
                v.epoch = session.epoch;
                v.delivered = session.endpoint->delivered();
                v.bytes_delivered = session.endpoint->bytes_delivered();
                v.payload_mismatches = session.endpoint->payload_mismatches();
                v.transport = session_transport(session);
                v.protocol = session.endpoint->metrics();
                views.push_back(std::move(v));
            });
        }
        return views;
    }

    /// Aggregate + per-session JSON: {"server":{...},"transport":{...},
    /// "sessions":[{...}]}.  E22 serializes this verbatim.
    std::string to_json() const {
        std::string out = "{\"server\":";
        out += stats().to_json();
        out += ",\"transport\":";
        out += merged_metrics().to_json();
        out += ",\"sessions\":[";
        bool first = true;
        for (const SessionView& v : sessions()) {
            if (!first) out += ",";
            first = false;
            out += "{\"conn\":";
            out += std::to_string(v.conn);
            out += ",\"epoch\":";
            out += std::to_string(v.epoch);
            out += ",\"delivered\":";
            out += std::to_string(v.delivered);
            out += ",\"bytes_delivered\":";
            out += std::to_string(v.bytes_delivered);
            out += ",\"transport\":";
            out += v.transport.to_json();
            out += ",\"protocol\":";
            out += v.protocol.to_json();
            out += "}";
        }
        out += "]}";
        return out;
    }

    /// The shard wheel servicing shard \p idx (tests: timer-count
    /// assertions around eviction).
    TimerWheel& shard_wheel(std::size_t idx) { return *shards_[idx]->wheel; }

    /// Delivered count of the session (peer, conn), or 0 if unknown.
    Seq session_delivered(PeerAddr peer, Seq conn) const {
        for (const auto& s : shards_) {
            if (const Session* session = s->sessions.find(SessionKey{peer.key(), conn})) {
                return session->endpoint->delivered();
            }
        }
        return 0;
    }

private:
    using Endpoint = NetEndpoint<Core, SharedBatchPort<AddressedSendBatch>>;

    struct Session {
        PeerAddr peer;
        Seq conn = 0;
        Seq epoch = 0;
        bool tagged = false;  // v1 peers get v1 (untagged) replies
        SimTime last_activity = 0;
        std::unique_ptr<Endpoint> endpoint;
    };

    struct Shard {
        explicit Shard(std::size_t recv_batch) : held_acks(recv_batch) {}

        AddressedTransport* transport = nullptr;
        std::unique_ptr<TimerWheel> wheel;
        RecvBatch rx{1};
        runtime::AckBatch held_acks;  // sessions acking at the arena's end
        AddressedSendBatch tx;
        /// Flat open-addressing table over a contiguous Session slab:
        /// demux is one probe run with no node chase, erase is
        /// tombstone-free, and steady state never allocates.
        FlatTable<SessionKey, Session, SessionKeyHash> sessions;
        SimTime next_sweep = 0;
        ServerStats stats;
        Metrics drained;  // send/impair totals of evicted and reset incarnations
        std::vector<SessionKey> evict_scratch;
        std::size_t victim_cursor = 0;  // rotating pressure-sampling start
    };

    static const Metrics& session_transport(const Session& session) {
        return session.endpoint->port().totals();
    }

    /// Runs inside the datagram's step (drain_ingress), so opening,
    /// resetting and driving the session share one clock reading.
    void demux(Shard& s, PeerAddr peer, const wire::FrameView& frame) {
        // v1 peers carry no tag: they are the single legacy session at
        // their address, conn id 0, epoch 0.
        const bool tagged = frame.conn.tagged();
        const Seq conn = tagged ? frame.conn.id : 0;
        const Seq epoch = tagged ? frame.conn.epoch : 0;
        const SessionKey key{peer.key(), conn};
        Session* session = s.sessions.find(key);
        if (session == nullptr) {
            if (s.sessions.size() >= shard_cap_) {
                // At the cap: under pressure policy, free the LRU-ish
                // victim to admit the new peer; otherwise load shed
                // (indistinguishable from loss).
                if (!cfg_.evict_on_pressure || !evict_victim(s)) {
                    ++s.stats.sessions_rejected;
                    return;
                }
                ++s.stats.sessions_pressure_evicted;
            }
            session = make_session(s, key, peer, conn, epoch, tagged);
            ++s.stats.sessions_opened;
        } else if (epoch > session->epoch) {
            // Peer restarted: tear down the old incarnation's state
            // (destructors cancel its timers) and start fresh.
            reset_session(s, *session, epoch);
            ++s.stats.sessions_reset;
        } else if (epoch < session->epoch) {
            ++s.stats.stale_epoch_drops;  // late frame from a dead incarnation
            return;
        }
        session->last_activity = s.wheel->now();
        session->endpoint->handle_frame(frame);
    }

    Session* make_session(Shard& s, const SessionKey& key, PeerAddr peer, Seq conn, Seq epoch,
                          bool tagged) {
        Session* session = s.sessions.try_emplace(key).first;
        session->peer = peer;
        session->conn = conn;
        session->epoch = epoch;
        session->tagged = tagged;
        session->last_activity = s.wheel->now();
        attach_endpoint(s, *session);
        return session;
    }

    /// Sample a handful of live slots from the session slab and evict
    /// the least recently active (Redis-style approximate LRU: no
    /// ordering structure to maintain on the hot path).  Returns false
    /// only if the slab holds nothing to evict.
    bool evict_victim(Shard& s) {
        static constexpr std::size_t kSamples = 8;
        const std::size_t slots = s.sessions.slot_count();
        if (slots == 0 || s.sessions.empty()) return false;
        bool found = false;
        SessionKey victim{};
        SimTime oldest = 0;
        std::size_t seen = 0;
        for (std::size_t probe = 0; probe < slots && seen < kSamples; ++probe) {
            const std::size_t slot = (s.victim_cursor + probe) % slots;
            if (!s.sessions.slot_live(slot)) continue;
            ++seen;
            const Session& candidate = s.sessions.slot_value(slot);
            if (!found || candidate.last_activity < oldest) {
                found = true;
                oldest = candidate.last_activity;
                victim = s.sessions.slot_key(slot);
            }
        }
        s.victim_cursor = (s.victim_cursor + kSamples) % std::max<std::size_t>(slots, 1);
        if (!found) return false;
        Session* doomed = s.sessions.find(victim);
        s.drained += session_transport(*doomed);
        s.sessions.erase(victim);  // destructors cancel all wheel timers
        return true;
    }

    /// (Re)builds the protocol half of a session: per-session config
    /// (conn tag, sub-seed) and the endpoint, whose port stages onto the
    /// shard batch (through an Impairer on that sub-seed when impaired).
    void attach_endpoint(Shard& s, Session& session) {
        NetConfig cfg = cfg_.session;
        cfg.seed = runtime::mix_seed(cfg_.session.seed, session.conn);
        if (session.tagged) cfg.conn = wire::Conn{session.conn, session.epoch};
        const ImpairSpec* impair = cfg_.impaired() ? &cfg_.impair : nullptr;
        session.endpoint =
            std::make_unique<Endpoint>(cfg, options_, *s.wheel, s.tx, session.peer, impair);
        session.endpoint->hold_acks_in(s.held_acks);
        // A duplex session (count > 0) starts originating immediately:
        // the first frame from the peer both opened the session and
        // proved the reverse path.
        if (cfg.count > 0) session.endpoint->start();
    }

    void reset_session(Shard& s, Session& session, Seq epoch) {
        // The endpoint's destructor cancels its timers and takes its port's
        // counters and impairer along: the new incarnation counts from 0.
        s.drained += session_transport(session);
        session.endpoint.reset();
        session.epoch = epoch;
        attach_endpoint(s, session);
    }

    std::size_t sweep(Shard& s, SimTime now) {
        s.evict_scratch.clear();
        s.sessions.for_each([&](const SessionKey& key, const Session& session) {
            if (now - session.last_activity >= cfg_.idle_timeout) {
                s.evict_scratch.push_back(key);
            }
        });
        for (const SessionKey& key : s.evict_scratch) {
            s.drained += session_transport(*s.sessions.find(key));
            s.sessions.erase(key);  // destructors cancel all wheel timers
            ++s.stats.sessions_evicted;
        }
        return s.evict_scratch.size();
    }

    /// Estimated heap bytes per session: the slab record, the endpoint
    /// (driver, cores, port), the w-sized out-of-order payload stash
    /// (w+1 parked buffers), and ~4 timer nodes on the shared wheel.
    /// Of an endpoint's four latency histograms only the sending half's
    /// ack-latency one is ever fed, so only a session that originates
    /// data (count > 0) allocates buckets: (64 - 5 + 1) << 5 counters at
    /// sim::Metrics' 5 sub-bits (common/histogram.hpp).  An estimate, not
    /// an accounting: the budget steers the cap, the cap is exact.
    /// tests/test_session_footprint.cpp holds it within 2x of the bytes
    /// a session allocates.
    std::size_t session_footprint() const {
        const std::size_t w = static_cast<std::size_t>(cfg_.session.w);
        const std::size_t payload = cfg_.session.payload_size;
        const std::size_t histograms =
            cfg_.session.count > 0 ? (std::size_t{64 - 5 + 1} << 5) * sizeof(std::uint64_t) : 0;
        return sizeof(Session) + sizeof(Endpoint) +
               (w + 1) * (payload + sizeof(std::vector<std::uint8_t>)) + histograms + 4 * 128;
    }

    std::size_t shard_session_cap() const {
        std::size_t cap = cfg_.max_sessions;
        if (cfg_.arena_budget > 0) {
            cap = std::min(cap, std::max<std::size_t>(1, cfg_.arena_budget / session_footprint()));
        }
        return cap;
    }

    /// Socket-owning delegate: adopt the reuseport sockets, then hand
    /// their raw pointers to the transport-vector constructor.
    Server(std::pair<std::vector<std::unique_ptr<UdpTransport>>, std::uint16_t> bound,
           ServerConfig cfg, Options options, Clock& clock)
        : Server(std::move(cfg), std::move(options), clock, raw_transports(bound.first)) {
        owned_sockets_ = std::move(bound.first);
        port_ = bound.second;
    }

    static std::vector<AddressedTransport*> raw_transports(
        const std::vector<std::unique_ptr<UdpTransport>>& sockets) {
        std::vector<AddressedTransport*> raw;
        raw.reserve(sockets.size());
        for (const auto& s : sockets) raw.push_back(s.get());
        return raw;
    }

    ServerConfig cfg_;
    Options options_;
    std::size_t shard_cap_ = 0;
    // Declared before shards_ so owned sockets outlive the shards that
    // point at them during teardown.
    std::vector<std::unique_ptr<UdpTransport>> owned_sockets_;
    std::uint16_t port_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
};

/// N SO_REUSEPORT sockets sharing one UDP port (0 = pick an ephemeral
/// port with the first, then bind the rest to it), each running the
/// requested kernel-offload tier.  Server's socket-owning constructor
/// calls this for you; feed the raw pointers to the transport-vector
/// constructor and keep the vector alive alongside it otherwise.
std::pair<std::vector<std::unique_ptr<UdpTransport>>, std::uint16_t> inline make_reuseport_shards(
    std::uint16_t port, std::size_t shards, OffloadMode offload, std::size_t socket_buffer) {
    BACP_ASSERT_MSG(shards > 0, "at least one shard");
    std::vector<std::unique_ptr<UdpTransport>> sockets;
    sockets.reserve(shards);
    sockets.push_back(std::make_unique<UdpTransport>(port, /*reuse_port=*/true));
    const std::uint16_t bound = sockets.front()->local_port();
    for (std::size_t i = 1; i < shards; ++i) {
        sockets.push_back(std::make_unique<UdpTransport>(bound, /*reuse_port=*/true));
    }
    // Hundreds of sessions hash to each shard; synchronized window
    // bursts overflow the default socket buffers long before the
    // protocol is the bottleneck.
    for (auto& s : sockets) {
        s->request_buffer_sizes(socket_buffer);
        s->enable_offload(offload);
    }
    return {std::move(sockets), bound};
}

}  // namespace bacp::net
