#pragma once

/// \file client_fleet.hpp
/// Many client sessions, a handful of sockets, one poll loop.
///
/// net::Server multiplexes 100k sessions onto a few shard sockets; the
/// harness that loads it must do the same or the *client* becomes the
/// bottleneck (100k NetEngines would mean 100k sockets, 100k receive
/// arenas, and 100k poll loops).  ClientFleet is the sender-side mirror
/// of the server's shard: N NetEndpoint sessions share F connected
/// sockets, one TimerWheel, and one receive arena.  Each session encodes
/// onto its socket's shared SendBatch (SharedBatchPort; the tick's frames
/// from every session on that socket leave in one sendmmsg), and
/// arriving acks are demuxed back by connection id -- decoded exactly
/// once, handed to the owning session as a FrameView.
///
/// Sessions never touch a socket themselves: they are driven through
/// NetEndpoint::handle_frame(), so their lazy receive arenas are never
/// built.  Every member records its ack latency into the fleet's one
/// histogram (ack_latency()), so a member holds only its endpoint
/// (driver, cores and port), about 6.1 KiB of heap at w=2
/// (tests/test_session_footprint.cpp).
/// Connection ids are dense (first_conn .. first_conn + sessions - 1),
/// making demux an index, not a hash.
///
/// The admission window (max_active) ramps the fleet: at most that many
/// sessions are in flight at once, a finished session's slot admitting
/// the next unstarted one the same tick.  That bounds client-side burst
/// memory and models a realistic arrival process instead of 100k
/// simultaneous SYN-storms -- the server still holds every admitted
/// session's state concurrently, which is what bench_e24 measures.

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/histogram.hpp"
#include "common/metrics_table.hpp"
#include "common/types.hpp"
#include "net/net_engine.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "runtime/session_util.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Fleet topology and per-session protocol surface.
struct FleetConfig {
    /// Per-session protocol configuration; each session gets a copy with
    /// its connection tag and sub-seed applied (`batch` is unused).
    NetConfig session;
    /// Total sessions the fleet will run to completion.
    std::size_t sessions = 1;
    /// Dense connection-id range start: session i is conn first_conn + i.
    Seq first_conn = 1;
    /// Epoch every session runs (bump to model peer restarts).
    Seq epoch = 1;
    /// In-flight session bound (0 = all at once).  Finished sessions
    /// free slots for unstarted ones within the same poll.
    std::size_t max_active = 0;
    /// Shared receive-arena capacity (datagrams per recv_batch).
    std::size_t recv_batch = 256;
};

/// Fleet lifecycle counters, tabled like ServerStats.
struct FleetStats {
    std::uint64_t sessions_started = 0;
    /// Sessions that have heard back from the server at least once --
    /// the server provably opened them (benches use touched == started
    /// to mark the end of warmup: every table and driver at high water).
    std::uint64_t sessions_touched = 0;
    std::uint64_t sessions_finished = 0;
    std::uint64_t decode_errors = 0;  // pre-demux rejects
    std::uint64_t crc_errors = 0;
    std::uint64_t unknown_conn_drops = 0;  // acks outside the dense range

    using Field = MetricsField;
    static constexpr std::size_t kFieldCount = 6;

    static constexpr std::array<CounterDef<FleetStats>, kFieldCount> kCounters = {{
        {"sessions_started", &FleetStats::sessions_started},
        {"sessions_touched", &FleetStats::sessions_touched},
        {"sessions_finished", &FleetStats::sessions_finished},
        {"decode_errors", &FleetStats::decode_errors},
        {"crc_errors", &FleetStats::crc_errors},
        {"unknown_conn_drops", &FleetStats::unknown_conn_drops},
    }};

    std::array<Field, kFieldCount> fields() const { return counter_fields(*this, kCounters); }
    std::string to_json() const { return fields_json(fields()); }
};

template <runtime::EndpointCore Core>
class ClientFleet {
public:
    using Options = typename Core::Options;
    using Endpoint = NetEndpoint<Core, SharedBatchPort<SendBatch>>;

    /// \p sockets are connected transports to the server (not owned;
    /// must outlive the fleet).  Session i sends through socket
    /// i % sockets.size(); the server's reply routing follows the
    /// socket's source address, so a session's acks always arrive on
    /// its own socket.
    ClientFleet(FleetConfig cfg, Options options, Clock& clock, std::vector<Transport*> sockets)
        : cfg_(std::move(cfg)),
          wheel_(std::make_unique<TimerWheel>(clock)),
          rx_(cfg_.recv_batch, cfg_.session.max_datagram),
          held_acks_(rx_.capacity()) {
        BACP_ASSERT_MSG(!sockets.empty(), "fleet needs at least one socket");
        BACP_ASSERT_MSG(cfg_.sessions > 0, "fleet needs at least one session");
        sockets_.reserve(sockets.size());
        for (Transport* t : sockets) {
            auto sock = std::make_unique<Socket>();
            sock->transport = t;
            sockets_.push_back(std::move(sock));
        }
        members_.reserve(cfg_.sessions);
        for (std::size_t i = 0; i < cfg_.sessions; ++i) {
            const Seq conn = cfg_.first_conn + static_cast<Seq>(i);
            NetConfig session_cfg = cfg_.session;
            session_cfg.seed = runtime::mix_seed(cfg_.session.seed, conn);
            session_cfg.conn = wire::Conn{conn, cfg_.epoch};
            members_.push_back(std::make_unique<Member>(
                session_cfg, options, *wheel_, sockets_[i % sockets_.size()]->staging));
            members_.back()->sender.record_ack_latency_into(ack_latency_);
            members_.back()->sender.hold_acks_in(held_acks_);
        }
    }

    ClientFleet(const ClientFleet&) = delete;
    ClientFleet& operator=(const ClientFleet&) = delete;

    /// One event-loop iteration: fire due timers (retransmits stage onto
    /// the socket batches), drain every socket through drain_ingress()
    /// (each frame demuxed to its session in a step of its own, the block
    /// acks a duplex fleet's DATA left held released once per arena),
    /// admit sessions into freed slots (one step for all of them), and
    /// flush each socket's staged frames as one batch.  Returns units of
    /// work.
    std::size_t poll() {
        std::size_t work = wheel_->fire_due();
        for (const auto& sock : sockets_) {
            work += drain_ingress(*sock->transport, rx_, *wheel_, &held_acks_,
                                  {&stats_.decode_errors, &stats_.crc_errors},
                                  [this](PeerAddr, const wire::FrameView& frame) { demux(frame); });
        }
        work += admit();
        for (const auto& sock : sockets_) sock->staging.flush(*sock->transport);
        return work;
    }

    /// Every session started and fully acknowledged.
    bool done() const { return stats_.sessions_finished == members_.size(); }

    std::size_t session_count() const { return members_.size(); }
    std::size_t active_count() const {
        return static_cast<std::size_t>(stats_.sessions_started - stats_.sessions_finished);
    }
    std::size_t finished_count() const {
        return static_cast<std::size_t>(stats_.sessions_finished);
    }

    const FleetStats& stats() const { return stats_; }
    TimerWheel& wheel() { return *wheel_; }
    /// Session \p i (connection first_conn + i), for its observers.
    const Endpoint& session(std::size_t i) const { return members_[i]->sender; }
    /// Ack latency of every message any member has retired (first
    /// transmission to the ack that retired it); the members' own
    /// tx_metrics().ack_latency stay empty.
    const Histogram& ack_latency() const { return ack_latency_; }

    /// Socket counters only: real boundary crossings (the client half of
    /// the dgrams/syscall amortization story).
    Metrics transport_metrics() const {
        Metrics total;
        for (const auto& sock : sockets_) total += sock->transport->stats();
        return total;
    }

    /// Per-session protocol counters, summed (allocates; not hot path).
    sim::Metrics protocol_metrics() const {
        sim::Metrics total;
        for (const auto& m : members_) {
            total.add_counters_from(m->sender.tx_metrics());
            total.add_counters_from(m->sender.rx_metrics());
        }
        return total;
    }

private:
    struct Socket {
        Transport* transport = nullptr;
        SendBatch staging;  // the tick's frames from every session here
    };

    struct Member {
        Member(const NetConfig& cfg, const Options& options, TimerWheel& wheel, SendBatch& out)
            : sender(cfg, options, wheel, out) {}
        Endpoint sender;
        bool touched = false;
        bool finished = false;
    };

    /// Runs inside the frame's step (drain_ingress): one clock reading per ack.
    void demux(const wire::FrameView& frame) {
        // Untagged replies belong to the single legacy session.
        const Seq conn = frame.conn.tagged() ? frame.conn.id : cfg_.first_conn;
        if (conn < cfg_.first_conn ||
            conn >= cfg_.first_conn + static_cast<Seq>(members_.size())) {
            ++stats_.unknown_conn_drops;
            return;
        }
        Member& m = *members_[static_cast<std::size_t>(conn - cfg_.first_conn)];
        if (!m.touched) {
            m.touched = true;
            ++stats_.sessions_touched;
        }
        m.sender.handle_frame(frame);
        // done() flips only on an ack, i.e. exactly here -- so the
        // finished count stays exact without scanning every session.
        if (!m.finished && m.sender.done()) {
            m.finished = true;
            ++stats_.sessions_finished;
        }
    }

    /// Starts unstarted sessions while the admission window has room;
    /// their initial windows stage onto the socket batches and leave
    /// with this tick's flush.
    std::size_t admit() {
        const std::size_t cap = cfg_.max_active > 0 ? cfg_.max_active : members_.size();
        if (next_start_ == members_.size() || active_count() >= cap) return 0;
        const auto step = wheel_->step();  // every start of this call at one instant
        std::size_t admitted = 0;
        while (next_start_ < members_.size() && active_count() < cap) {
            members_[next_start_]->sender.start();
            ++next_start_;
            ++stats_.sessions_started;
            ++admitted;
        }
        return admitted;
    }

    FleetConfig cfg_;
    std::unique_ptr<TimerWheel> wheel_;  // shared by every session
    RecvBatch rx_;                       // shared receive arena
    runtime::AckBatch held_acks_;        // members acking at the arena's end
    std::vector<std::unique_ptr<Socket>> sockets_;
    Histogram ack_latency_;  // fed by every member: declared first, outlives them
    std::vector<std::unique_ptr<Member>> members_;
    std::size_t next_start_ = 0;
    FleetStats stats_;
};

}  // namespace bacp::net
