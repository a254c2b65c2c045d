#pragma once

/// \file net_engine.hpp
/// The real-time transport runtime: transport adapters over
/// runtime::DuplexDriver, driving the same EndpointCore machines the
/// discrete-event runtime::Engine drives -- over actual datagrams and a
/// wall (or manual) clock.
///
/// Where the DES engine adapts the shared driver to a simulator and two
/// SimChannels, a real network has one endpoint per socket end -- and a
/// real endpoint is *duplex*.  NetEndpoint embeds a DuplexDriver (a
/// sending-half and a receiving-half EndpointDriver sharing this
/// environment's clock, timers, and egress) and exchanges frames
/// serialized through wire::codec.  Time, timers and egress come from a
/// *port*: NetPort or SharedBatchPort (a TimerWheel and a send batch) for
/// the real network, link::SimPort (Simulator + ByteChannel) for the
/// discrete-event link layer -- so the DES link and the real network
/// run one frame-handling path as well as one driver.  The classic
/// one-way shapes are trivial configurations of it: count > 0,
/// rx_count == 0 is the old pure sender; count == 0, rx_count > 0 the
/// old pure receiver.  With
/// `piggyback` on, the duplex layer defers acks so reverse DATA carries
/// them as DATA+ACK frames (wire type 4); off, every ack egresses
/// immediately and the one-way decision streams are byte-identical to
/// the pre-duplex runtime (tests/test_driver_parity.cpp pins that).
///
/// All timeout disciplines, window pumping, ack policy, resend
/// selection, and the ack-deferral policy live in the runtime layer
/// (runtime/endpoint_driver.hpp, runtime/duplex_driver.hpp); this class
/// only encodes/decodes, batches, stashes payloads, and counts
/// transport-level anomalies.  Every datagram is CRC-32C checked on
/// receive; a frame that fails decode is counted and dropped, i.e. fed
/// to the loss tolerance the protocol already has -- exactly the channel
/// model the paper's proof assumes.
///
/// This environment advertises kHasOracle = false: one endpoint cannot
/// prove quiescence, so the driver approximates the oracle timeout modes
/// with its quiescence timer (a full conservative timeout of silence)
/// instead of the DES's provable idle point.
///
/// NetEngine<Core> composes two endpoints over a transport pair (UDP
/// loopback or in-process queues) with seeded impairment and drives a
/// fixed-size transfer of pattern payloads to completion -- one-way by
/// default, bidirectional when reverse_count > 0.  With --inproc
/// (InprocTransport + ManualClock) a run is a pure function of its seed:
/// time advances only to the next timer deadline, so two runs deliver
/// byte-identical traffic.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "net/clock.hpp"
#include "net/impairer.hpp"
#include "net/payload_stash.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "protocol/message.hpp"
#include "runtime/duplex_driver.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"
#include "wire/codec.hpp"

namespace bacp::net {

/// Configuration of a real-time transfer: the shared runtime::EngineConfig
/// surface (window, count, timeout discipline, ack policy, seed, ...)
/// plus the knobs only a real network introduces.  Core-specific knobs
/// ride in the core's own Options struct, as with the DES engine.
///
/// Of the inherited fields, the link specs are overridden by
/// engine_config() (loss and delay live in the real channel here, via
/// `impair`), and the DES-only knobs (max_events, record_trace,
/// check_invariants) are ignored.
struct NetConfig : runtime::EngineConfig {
    NetConfig() { deadline = 60 * kSecond; }  // run cap, in clock time

    std::size_t payload_size = 1024;  // bytes of pattern payload per message
    /// Assumed bound on datagram time-in-transit (the paper's channel
    /// lifetime L).  Feeds the cores' time-based rules (send horizon, NAK
    /// one-copy) and the derived timeout.  Generous for loopback plus the
    /// impairment delays.
    SimTime link_lifetime = 50 * kMillisecond;
    ImpairSpec impair;  // data direction (and ack direction, unless overridden)
    /// Ack-direction impairment override; nullopt applies `impair`
    /// symmetrically.  Lets a scenario impair one direction only (the
    /// cross-runtime parity test scripts data-channel drops this way).
    std::optional<ImpairSpec> impair_ack;
    /// Datagrams per NetPort batch: the RecvBatch arena capacity and
    /// the flush granularity of the tick's staged sends.  0 sizes it
    /// from the window -- the batch the protocol naturally builds.
    /// 1 degenerates to the single-shot path (one syscall per datagram),
    /// kept as the A/B baseline E19 measures against.  Server and fleet
    /// sessions ignore it (they stage onto their owner's batch).
    std::size_t batch = 0;
    /// Largest datagram this endpoint expects (the RecvBatch arena
    /// stride).  The UDP maximum is always safe; a server hosting
    /// thousands of sessions shrinks it to its known frame size so its
    /// shard arenas stay cheap.
    std::size_t max_datagram = kMaxDatagram;
    /// Connection tag stamped on every frame this endpoint encodes.
    /// Untagged (the default) selects the byte-identical v1 wire format;
    /// a server session sets it so its acks come back tagged for demux
    /// at a multiplexed peer.
    wire::Conn conn;
    /// Kernel-offload tier for the UDP transports (net/offload.hpp):
    /// Mmsg keeps the portable sendmmsg/recvmmsg baseline, Gso adds
    /// UDP_SEGMENT/UDP_GRO, Auto takes the best the kernel supports.
    /// Ignored in Inproc mode (no kernel below the queues).
    OffloadMode offload = OffloadMode::Mmsg;
    /// Messages this endpoint expects to *sink* (its receiving half's
    /// target); the inherited `count` stays the messages it originates.
    /// (count, 0) is the classic pure sender, (0, rx_count) the pure
    /// receiver, both nonzero a duplex endpoint.
    Seq rx_count = 0;
    /// NetEngine only: reverse-direction message count (endpoint B back
    /// to endpoint A), turning the engine's transfer bidirectional.  The
    /// endpoints derive their own count/rx_count splits from it.
    Seq reverse_count = 0;
    /// Defer acks so reverse DATA carries them as DATA+ACK piggyback
    /// frames (wire type 4); a flush timer bounds the deferral at
    /// piggyback_delay.  Both endpoints of a session must agree on this
    /// pair, exactly as they must agree on w and the ack policy: the
    /// conservatively derived timeout folds the deferral bound in.
    /// Off by default -- one-way sessions gain nothing, and the pinned
    /// cross-runtime decision parity stays timestamp-exact.
    bool piggyback = false;
    SimTime piggyback_delay = 2 * kMillisecond;
    /// Stream tag stamped on every frame (kNoStream = untagged): the
    /// link-layer mux (link::NetStreamMux) runs several endpoints over
    /// one shared transport and demuxes arrivals by this id.
    Seq stream = wire::kNoStream;

    std::size_t effective_batch() const {
        if (batch > 0) return batch;
        return std::max<std::size_t>(static_cast<std::size_t>(w), 1);
    }

    /// The EngineConfig handed to the drivers and core constructors: the
    /// inherited fields verbatim, with the links described as
    /// lossless-with-lifetime (cores and the derived timeout only consult
    /// max_lifetime(); actual loss/delay happen in the Impairer).
    runtime::EngineConfig engine_config() const {
        runtime::EngineConfig e = *this;
        e.data_link = runtime::LinkSpec::lossless(0, link_lifetime);
        e.ack_link = runtime::LinkSpec::lossless(0, link_lifetime);
        return e;
    }

    runtime::DuplexSpec duplex_spec() const {
        return runtime::DuplexSpec{rx_count, piggyback, piggyback_delay};
    }

    /// Retransmission timeout: explicit, or the conservative bound
    /// L_SR + L_RS + max ack delay + margin (the one shared formula,
    /// runtime::derived_timeout) -- widened by the ack-deferral bound
    /// when piggybacking, mirroring DuplexDriver's own derivation.
    SimTime effective_timeout() const {
        SimTime t = runtime::effective_timeout(engine_config());
        if (timeout == 0 && piggyback) t += piggyback_delay;
        return t;
    }
};

/// Deterministic payload for message \p seq: a splitmix64 stream keyed by
/// the (true) sequence number, so the receiver can verify every delivered
/// byte without any side channel.  The fill form writes into caller
/// memory (the batch slab / a reused scratch) and is what the hot paths
/// use.
inline void pattern_fill(Seq seq, std::span<std::uint8_t> payload) {
    std::uint64_t state = seq ^ 0xba5eba115eedULL;
    std::size_t i = 0;
    while (i < payload.size()) {
        const std::uint64_t word = splitmix64(state);
        for (int b = 0; b < 8 && i < payload.size(); ++b, ++i) {
            payload[i] = static_cast<std::uint8_t>(word >> (8 * b));
        }
    }
}

inline std::vector<std::uint8_t> pattern_payload(Seq seq, std::size_t size) {
    std::vector<std::uint8_t> payload(size);
    pattern_fill(seq, payload);
    return payload;
}

/// An owner's counters for datagrams wire::decode_view rejects: every
/// reject bumps *decode_errors, a CRC mismatch *crc_errors too (null
/// when the owner keeps no separate count).
struct RejectCounters {
    std::uint64_t* decode_errors;
    std::uint64_t* crc_errors = nullptr;

    void count(wire::DecodeError error) const {
        ++*decode_errors;
        if (crc_errors != nullptr && error == wire::DecodeError::BadCrc) ++*crc_errors;
    }
};

/// The receive loop of every real-time receiver (NetPort, Server shards,
/// ClientFleet): drains \p transport into the arena \p rx until a short
/// batch comes back and hands each datagram that decodes to \p demux as
/// (source address, FrameView) inside one step of \p wheel.  A reject is
/// counted in \p rejects and dropped as loss, without a step.  After
/// each arena the acks \p held (null: none) go out in one more step.
/// Returns the datagrams received.
template <typename Demux>
std::size_t drain_ingress(Transport& transport, RecvBatch& rx, TimerWheel& wheel,
                          runtime::AckBatch* held, RejectCounters rejects, Demux&& demux) {
    std::size_t received = 0;
    for (;;) {
        const std::size_t n = transport.recv_batch(rx);
        for (std::size_t i = 0; i < n; ++i) {
            const wire::ViewResult result = wire::decode_view(rx[i]);
            if (!result.ok()) {
                rejects.count(result.error());
                continue;
            }
            [[maybe_unused]] const auto step = wheel.step();
            demux(rx.peer(i), result.frame());
        }
        if (held != nullptr && !held->empty()) {
            [[maybe_unused]] const auto step = wheel.step();
            held->release();
        }
        received += n;
        if (n < rx.capacity()) return received;
    }
}

/// Reserves the most timers an endpoint can hold (one per outstanding
/// message plus each half's singletons), so a late loss burst grows nothing.
inline void reserve_endpoint_timers(const NetConfig& cfg, TimerWheel& wheel) {
    std::size_t timers = 4;
    if (cfg.count > 0) timers += static_cast<std::size_t>(cfg.w) + 4;
    if (cfg.piggyback) timers += 1;
    wheel.reserve(timers);
}

/// The port of a point-to-point NetEndpoint: a TimerWheel for the
/// drivers' timers, a Transport below, and the tick's SendBatch.  Egress
/// is staged onto the batch and flushed once per poll() (or per frame,
/// when the configuration asks for unbatched sends); poll() is the
/// event-loop body and must be called from one thread only.
/// link::NetStreamMux polls its shared socket through a receive-only
/// NetPort of its own.
class NetPort {
public:
    /// \p wheel is the endpoint's (and, when impaired, its Impairer's)
    /// timer wheel; poll() fires it, so both must live on one thread.
    NetPort(const NetConfig& cfg, TimerWheel& wheel, Transport& transport)
        : wheel_(wheel),
          transport_(&transport),
          batch_(cfg.effective_batch()),
          max_datagram_(cfg.max_datagram) {
        reserve_endpoint_timers(cfg, wheel_);
        // Size the batch builder for its largest burst now: a wrapped
        // ack's two frames unbatched; batched, a tick's timeout burst,
        // the acks of a full arena and the resends they release.
        batch_cap_ = batch_ <= 1 ? 2 : 4 * static_cast<std::size_t>(cfg.w) + 32;
        tx_batch_.reserve(batch_cap_, batch_cap_ * (cfg.payload_size + 128));
    }

    TimerService& timer_service() { return wheel_; }
    SimTime now() const { return wheel_.now(); }
    TimerWheel& wheel() { return wheel_; }
    /// Opens a step on the wheel: one clock reading for the call.
    TimerWheel::Step step() { return wheel_.step(); }

    /// Stages one frame, serialized by \p encode straight onto the batch
    /// slab -- no per-frame allocation once the slab is at high water.
    template <typename Encode>
    void stage(Encode&& encode) {
        tx_batch_.append_with(encode);
    }

    /// After a protocol step staged its frames: flushes when unbatched
    /// sending is configured, or when the builder has filled its
    /// reserved burst -- a post-stall poll can drain an arbitrary
    /// backlog in one pass, and capping the batch here bounds the
    /// builder to the ctor's reserve (a real sendmmsg caps a batch at
    /// IOV_MAX the same way).
    void staged() {
        if (batch_ <= 1 || tx_batch_.size() >= batch_cap_) flush();
    }

    void flush() { tx_batch_.flush(*transport_); }

    /// One event-loop iteration: fires due timers, pushes out matured
    /// delayed copies, drains the socket through drain_ingress() (one
    /// step per decoded datagram handed to \p demux; acks stay one per
    /// DATA, so no AckBatch), and finally flushes everything the tick
    /// staged (new sends, retransmits, acks) as one batch.  Returns how
    /// many units of work (timers + datagrams) were processed.
    template <typename Demux>
    std::size_t poll(RejectCounters rejects, Demux&& demux) {
        std::size_t work = wheel_.fire_due();
        transport_->flush();  // delayed impairer copies matured above
        work += drain_ingress(*transport_, rx_batch(), wheel_, nullptr, rejects, demux);
        flush();
        return work;
    }

private:
    /// The receive arena, built on first poll(): a server-driven session
    /// never polls its own transport, so it never pays for one.
    RecvBatch& rx_batch() {
        if (!rx_batch_) rx_batch_ = std::make_unique<RecvBatch>(batch_, max_datagram_);
        return *rx_batch_;
    }

    TimerWheel& wheel_;
    Transport* transport_;
    std::size_t batch_;         // NetConfig::effective_batch()
    std::size_t max_datagram_;  // RecvBatch arena stride
    std::size_t batch_cap_ = 0;  // reserved burst; see ctor
    SendBatch tx_batch_;                     // the tick's staged frames
    std::unique_ptr<RecvBatch> rx_batch_;    // lazy: see rx_batch()
};

/// The port of an endpoint a multiplexing owner drives: a Server session
/// (Batch = AddressedSendBatch, frames bound for \p peer) or a ClientFleet
/// member (Batch = SendBatch, its socket's).  Timers come from the
/// owner's wheel and stage() encodes straight onto the owner's batch,
/// which the owner flushes once per poll, so staged() and flush() do
/// nothing.  With \p impair set (a session of an impaired server), each
/// frame is encoded into one reused buffer and offered to an Impairer
/// seeded with cfg.seed, whose inner transport is this port.
template <typename Batch>
class SharedBatchPort final : public Transport {
public:
    SharedBatchPort(const NetConfig& cfg, TimerWheel& wheel, Batch& out, PeerAddr peer = {},
                    const ImpairSpec* impair = nullptr)
        : wheel_(wheel), out_(&out), peer_(peer) {
        reserve_endpoint_timers(cfg, wheel_);
        if (impair) impairer_ = std::make_unique<Impairer>(*this, wheel_, *impair, cfg.seed);
    }

    TimerService& timer_service() { return wheel_; }
    SimTime now() const { return wheel_.now(); }
    TimerWheel::Step step() { return wheel_.step(); }

    template <typename Encode>
    void stage(Encode&& encode) {
        if (!impairer_) return append(encode);
        frame_.clear();
        encode(frame_);
        const std::span<const std::uint8_t> datagram[] = {frame_};
        impairer_->send_batch(datagram);
    }
    void staged() {}
    void flush() {}

    /// The Impairer's inner transport: stages every copy it lets through.
    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override {
        for (const std::span<const std::uint8_t> d : datagrams) {
            append([&](std::vector<std::uint8_t>& b) { b.insert(b.end(), d.begin(), d.end()); });
        }
        return datagrams.size();
    }
    std::size_t recv_batch(RecvBatch& batch) override {
        batch.clear();  // the owner receives for its endpoints
        return 0;
    }

    /// Null when unimpaired; the owner flushes its matured copies.
    Impairer* impairer() const { return impairer_.get(); }
    /// Send totals: the Impairer's when impaired (they include what it
    /// forwarded), else the datagrams and bytes this port staged.
    const Metrics& totals() const { return impairer_ ? impairer_->stats() : stats(); }

private:
    template <typename Encode>
    void append(Encode&& encode) {
        const auto counted = [&](std::vector<std::uint8_t>& slab) {
            const std::size_t base = slab.size();
            encode(slab);
            stats_.bytes_sent += slab.size() - base;
        };
        if constexpr (std::is_same_v<Batch, AddressedSendBatch>) {
            out_->append_with(peer_, counted);
        } else {
            out_->append_with(counted);
        }
        ++stats_.datagrams_sent;
    }

    TimerWheel& wheel_;
    Batch* out_;
    PeerAddr peer_;
    std::unique_ptr<Impairer> impairer_;
    std::vector<std::uint8_t> frame_;  // the impaired path's reused buffer
};

/// One duplex endpoint: the environment for a DuplexDriver, over a
/// *port* that supplies time, timers and frame egress.  Everything that
/// does not depend on the port lives here exactly once: frame dispatch,
/// the receive-side payload stash (and its dup-ack erase), payload
/// staging, the wrapped-ack split, and delivery.  Three ports exist:
///
///   NetPort (default)  TimerWheel + Transport + SendBatch -- a
///                      point-to-point endpoint (NetReliableLink, ...);
///   SharedBatchPort    a Server session or ClientFleet member;
///   link::SimPort      sim::Simulator + one outbound link::ByteChannel
///                      -- the discrete-event link layer (ReliableLink,
///                      StreamMux, the multihop paths, DuplexSession).
///
/// A Port supplies timer_service(), now(), step(), stage(encode),
/// staged() and flush(); poll() and wheel() exist only for ports that
/// own a receive loop (NetPort).  On either port the endpoint advertises
/// kHasOracle = false: it cannot prove its channels empty, so the driver
/// approximates the oracle timeout modes with its quiescence timer.
///
/// Payload bytes default to the verifiable pattern; set_payload_source /
/// set_deliver_sink rebind both ends to real data (the link layer and
/// the file-transfer example feed actual bytes through these).
template <runtime::EndpointCore Core, typename Port = NetPort>
class NetEndpoint {
public:
    using Options = typename Core::Options;
    /// Fills `out` with the payload of message \p true_seq.  Must be
    /// random-access: retransmissions re-request any outstanding seq.
    using PayloadSource = std::function<void(Seq true_seq, std::vector<std::uint8_t>& out)>;
    /// Consumes the bytes of one in-order delivery.
    using DeliverSink = std::function<void(Seq true_seq, std::span<const std::uint8_t> payload)>;

    /// \p port_args construct the port after the config: (TimerWheel&,
    /// Transport&) for NetPort, (Simulator&, ByteChannel&) for SimPort.
    template <typename... PortArgs>
    NetEndpoint(const NetConfig& cfg, Options options, PortArgs&... port_args)
        : cfg_(cfg),
          port_(cfg_, port_args...),
          duplex_(cfg_.engine_config(), cfg_.duplex_spec(), std::move(options), *this) {
        // The stash holds at most a window of out-of-order payloads (+1
        // for the in-flight arrival, so a full window never triggers a
        // table grow); reserve to worst case so the first loss burst
        // (which may come long after warmup) allocates nothing.
        if (cfg_.rx_count > 0) {
            stash_.reserve_buffers(static_cast<std::size_t>(cfg_.w) + 1, cfg_.payload_size);
        }
    }

    NetEndpoint(const NetEndpoint&) = delete;
    NetEndpoint& operator=(const NetEndpoint&) = delete;

    /// Opens the faucet of the sending half (a pure receiver has none).
    /// Call once before the poll loop.  One step.
    void start() {
        [[maybe_unused]] const auto step = port_.step();
        if (cfg_.count > 0) duplex_.start();
        port_.flush();
    }

    /// Application-gated arrivals (EngineConfig::app_arrivals): the
    /// caller queued \p n more payloads with its payload source, so the
    /// window may pump them now.  Flushes whatever the pump staged.  One
    /// step.
    void release(Seq n) {
        [[maybe_unused]] const auto step = port_.step();
        duplex_.release(n);
        port_.flush();
    }

    /// One event-loop iteration of the port (NetPort::poll).  Returns how
    /// many units of work (timers + datagrams) were processed.
    std::size_t poll() {
        return port_.poll(rejects(),
                          [this](PeerAddr, const wire::FrameView& frame) { handle_frame(frame); });
    }

    /// Decodes one datagram and feeds it to handle_frame() -- the DES
    /// port's entry (link::SimPort); NetPort decodes in drain_ingress().
    void handle_datagram(std::span<const std::uint8_t> bytes) {
        const wire::ViewResult result = wire::decode_view(bytes);
        if (!result.ok()) return rejects().count(result.error());  // treated as loss
        handle_frame(result.frame());
    }

    /// Feeds one already-decoded frame to the drivers -- the entry point
    /// every drain_ingress() demux uses (each datagram is decoded exactly
    /// once, by the drain).  Frames for a direction this endpoint does
    /// not run (DATA at a pure sender, ACK at a pure receiver) are
    /// counted as anomalies and dropped.
    void handle_frame(const wire::FrameView& frame) {
        switch (frame.type) {
            case wire::FrameType::Ack:
                if (cfg_.count == 0) return count_anomaly();
                duplex_.handle_ack(proto::Ack{frame.lo, frame.hi});
                break;
            case wire::FrameType::Nak:
                if (cfg_.count == 0) return count_anomaly();
                duplex_.handle_nak(proto::Nak{frame.seq});
                break;
            case wire::FrameType::Data:
                if (cfg_.rx_count == 0) return count_anomaly();
                ingest_data(frame, nullptr);
                break;
            case wire::FrameType::DataAck: {
                // The ack half rides for our sending side; the data half
                // for our receiving side.  A pure receiver still absorbs
                // the data half (the ack half clips to an empty window).
                if (cfg_.rx_count == 0) return count_anomaly();
                const proto::Ack ack{frame.lo, frame.hi};
                ingest_data(frame, &ack);
                break;
            }
        }
    }

    /// Every originated message sent and acknowledged, every expected
    /// arrival delivered.
    bool done() const { return duplex_.done(); }

    Seq delivered() const { return duplex_.delivered(); }
    std::uint64_t bytes_delivered() const { return bytes_delivered_; }
    /// Delivered payloads whose bytes did not match the expected pattern.
    /// Must be zero: CRC-32C rejects corruption before the core sees it.
    std::uint64_t payload_mismatches() const { return payload_mismatches_; }
    /// Acks that rode reverse DATA frames vs. egressed standalone.
    std::uint64_t piggybacked() const { return duplex_.piggybacked(); }
    std::uint64_t standalone_acks() const { return duplex_.standalone_acks(); }

    const NetConfig& config() const { return cfg_; }
    TimerWheel& wheel() { return port_.wheel(); }
    const Port& port() const { return port_; }
    /// The sending half, for its observers (sent_new, released,
    /// ack_cursor, first_sent_at).
    const auto& tx_driver() const { return duplex_.tx_driver(); }
    const Core& tx_core() const { return duplex_.tx_core(); }
    const Core& rx_core() const { return duplex_.rx_core(); }

    /// Field-wise sum of both halves' counters, with the receiving
    /// half's delivery-latency histogram and the sending half's
    /// ack-latency histogram riding along.  Built per call; sums over
    /// many endpoints read tx_metrics() and rx_metrics() instead.
    sim::Metrics metrics() const {
        sim::Metrics merged = duplex_.tx_metrics();
        merged.add_counters_from(duplex_.rx_metrics());
        merged.latency = duplex_.rx_metrics().latency;
        return merged;
    }
    const sim::Metrics& tx_metrics() const { return duplex_.tx_metrics(); }
    const sim::Metrics& rx_metrics() const { return duplex_.rx_metrics(); }

    /// Points the sending half's ack-latency recording at \p sink (see
    /// EndpointDriver::record_ack_latency_into); tx_metrics().ack_latency
    /// then stays empty.  \p sink must outlive the endpoint; call before
    /// start().
    void record_ack_latency_into(Histogram& sink) {
        duplex_.tx_driver().record_ack_latency_into(sink);
    }

    /// Attach (or detach, with nullptr) a protocol-decision recorder;
    /// both halves share it ('S' / 'R' endpoint chars keep the streams
    /// separable).
    void set_decision_log(runtime::DecisionLog* log) { duplex_.set_decision_log(log); }

    /// Joins the receiving half to a multiplexing loop's end-of-arena
    /// ack list (runtime::AckBatch; drain_ingress releases it).
    /// \p batch must outlive the endpoint.
    void hold_acks_in(runtime::AckBatch& batch) { duplex_.rx_driver().hold_acks_in(batch); }

    void set_payload_source(PayloadSource source) { payload_source_ = std::move(source); }
    void set_deliver_sink(DeliverSink sink) { deliver_sink_ = std::move(sink); }

    // ---- Environment hooks (called by DuplexDriver) ------------------------
    // Public because the driver is a distinct type; not user API.

    /// One endpoint cannot prove its channels empty; the driver
    /// substitutes its silence-timer approximation for the oracle modes.
    static constexpr bool kHasOracle = false;

    TimerService& timer_service() { return port_.timer_service(); }
    SimTime now() const { return port_.now(); }

    void send_data(const proto::Data& msg, Seq true_seq, bool /*retx*/) {
        // Stage the frame with the port (NetPort batches the tick for one
        // send_batch; SimPort puts it on its channel now).  The payload
        // is keyed by the true sequence number (the receiver re-derives
        // or reassembles it at delivery), while the frame carries the
        // core's wire value -- identical for unbounded cores, a residue
        // for bounded ones.  The bytes land in a reused scratch and are
        // encoded straight onto the port's buffer -- on NetPort no
        // per-frame allocation once both are at high-water mark.
        stage_payload(true_seq);
        port_.stage([&](std::vector<std::uint8_t>& slab) {
            wire::encode_data_to(slab, msg.seq, payload_scratch_, wire::kFlagNone, cfg_.stream,
                                 cfg_.conn);
        });
        port_.staged();
    }

    /// Reverse DATA carrying a deferred ack block.  The duplex layer
    /// splits wrapped bounded-BA ranges before piggybacking, so the wire
    /// precondition lo <= hi always holds here.
    void send_data_ack(const proto::Data& msg, Seq true_seq, bool /*retx*/,
                       const proto::Ack& ack, runtime::AckKind) {
        stage_payload(true_seq);
        port_.stage([&](std::vector<std::uint8_t>& slab) {
            wire::encode_data_ack_to(slab, msg.seq, ack.lo, ack.hi, payload_scratch_,
                                     wire::kFlagNone, cfg_.stream, cfg_.conn);
        });
        port_.staged();
    }

    /// Bounded cores ack residue *ranges*; a block that straddles the
    /// domain edge arrives as (lo, hi) with hi < lo (e.g. (7, 2) in
    /// domain 8).  The wire format carries closed intervals, so such a
    /// block goes out as two frames, (lo, domain-1) and (0, hi) -- each
    /// is itself a valid sub-block ack the sender absorbs independently,
    /// and losing one of the pair is just an ordinary lost ack.
    void send_ack(const proto::Ack& ack, runtime::AckKind) {
        if constexpr (runtime::kCoreAckWireWrapped<Core>) {
            if (ack.lo > ack.hi) {
                const Seq top = duplex_.rx_core().ack_wire_domain() - 1;
                port_.stage([&](std::vector<std::uint8_t>& slab) {
                    wire::encode_ack_to(slab, ack.lo, top, wire::kFlagNone, cfg_.stream,
                                        cfg_.conn);
                });
                port_.stage([&](std::vector<std::uint8_t>& slab) {
                    wire::encode_ack_to(slab, 0, ack.hi, wire::kFlagNone, cfg_.stream,
                                        cfg_.conn);
                });
                port_.staged();
                return;
            }
        }
        port_.stage([&](std::vector<std::uint8_t>& slab) {
            wire::encode_ack_to(slab, ack.lo, ack.hi, wire::kFlagNone, cfg_.stream, cfg_.conn);
        });
        port_.staged();
    }

    void send_nak(const proto::Nak& nak) {
        port_.stage([&](std::vector<std::uint8_t>& slab) {
            wire::encode_nak_to(slab, nak.seq, wire::kFlagNone, cfg_.stream, cfg_.conn);
        });
        port_.staged();
    }

    /// Consumes the stashed payload of one in-order delivery.  The stash
    /// is keyed by *wire* value (all the frame carries); wire-mapped
    /// cores translate, unbounded ones are the identity.  The protocols
    /// guarantee at most one live message per wire value at the receiver
    /// (window/domain relation, residue quarantine), so the latest write
    /// for a key is always the delivered message's own bytes.
    void on_delivery(Seq true_seq) {
        Seq key = true_seq;
        if constexpr (runtime::kCoreWireMapped<Core>) {
            key = duplex_.rx_core().wire_seq(true_seq);
        }
        const std::vector<std::uint8_t>* bytes = stash_.find(key);
        BACP_ASSERT_MSG(bytes != nullptr, "delivered message has no stashed payload");
        bytes_delivered_ += bytes->size();
        if (deliver_sink_) {
            deliver_sink_(true_seq, *bytes);
        } else {
            expected_scratch_.resize(bytes->size());
            pattern_fill(true_seq, expected_scratch_);
            if (*bytes != expected_scratch_) ++payload_mismatches_;
        }
        stash_.erase(key);
    }

    void after_step() {}

private:
    /// A frame for a direction this endpoint does not run, and a datagram
    /// that fails decode (rejects()).  Counted on the sending half's
    /// metrics; the per-endpoint merge makes the choice of half invisible.
    void count_anomaly() { ++duplex_.tx_metrics_mut().decode_errors; }
    RejectCounters rejects() {
        sim::Metrics& m = duplex_.tx_metrics_mut();
        return {&m.decode_errors, &m.crc_errors};
    }

    /// DATA (optionally carrying a piggybacked ack) into the receiving
    /// half.  The payload is stashed before the driver steps so a
    /// delivery it unlocks can always find its bytes; latest write wins,
    /// so a wire value being reused (bounded cores) always maps to the
    /// newest message.
    void ingest_data(const wire::FrameView& frame, const proto::Ack* ack) {
        stash_.put(frame.seq, frame.payload);
        const std::uint64_t dup_acks_before = duplex_.rx_metrics().dup_acks;
        if (ack != nullptr) {
            duplex_.handle_data_ack(proto::Data{frame.seq}, *ack);
        } else {
            duplex_.handle_data(proto::Data{frame.seq});
        }
        // A re-acked arrival (the core answered with a singleton re-ack
        // instead of buffering) will never be consumed -- drop its bytes
        // now, or every retransmission of a delivered message grows the
        // stash by one dead entry forever.  In-window duplicates of
        // still-buffered messages take the other branch (no dup-ack) and
        // keep their bytes.
        if (duplex_.rx_metrics().dup_acks != dup_acks_before) stash_.erase(frame.seq);
    }

    void stage_payload(Seq true_seq) {
        if (payload_source_) {
            payload_source_(true_seq, payload_scratch_);
        } else {
            payload_scratch_.resize(cfg_.payload_size);
            pattern_fill(true_seq, payload_scratch_);
        }
    }

    NetConfig cfg_;
    Port port_;

    std::uint64_t bytes_delivered_ = 0;
    std::uint64_t payload_mismatches_ = 0;
    // Live stash entries are protocol-bounded by the window (+1 for the
    // in-flight arrival, so a full window never triggers a table grow).
    PayloadStash stash_{static_cast<std::size_t>(cfg_.w) + 1};  // wire seq -> payload
    std::vector<std::uint8_t> payload_scratch_;   // outbound bytes, reused
    std::vector<std::uint8_t> expected_scratch_;  // pattern verify, reused
    PayloadSource payload_source_;  // empty = pattern payloads
    DeliverSink deliver_sink_;      // empty = pattern verification
    runtime::DuplexDriver<Core, NetEndpoint> duplex_;  // last: uses members above
};

/// Everything a real-time run measures.
struct NetReport {
    sim::Metrics metrics;  // both endpoints' counters, field-wise sum
    std::uint64_t bytes_delivered = 0;          // forward direction (A -> B)
    std::uint64_t reverse_bytes_delivered = 0;  // duplex runs: B -> A
    std::uint64_t payload_mismatches = 0;
    /// Ack egress split across both endpoints: blocks that rode reverse
    /// DATA vs. standalone ACK frames.
    std::uint64_t piggybacked = 0;
    std::uint64_t standalone_acks = 0;
    Metrics impair_sr;  // impairment boundary, A -> B direction
    Metrics impair_rs;
    Metrics transport_sr;  // inner transport, post-impairment
    Metrics transport_rs;
    SimTime elapsed = 0;  // clock time, start of run to completion
    bool completed = false;

    double goodput_mbps() const {
        if (elapsed <= 0) return 0.0;
        return static_cast<double>(bytes_delivered) * 8.0 / to_seconds(elapsed) / 1e6;
    }

    /// Fraction of ack blocks that rode a reverse DATA frame.
    double piggyback_ratio() const {
        const double total = static_cast<double>(piggybacked + standalone_acks);
        return total > 0 ? static_cast<double>(piggybacked) / total : 0.0;
    }

    /// Inner-transport totals, both directions -- the send-side ratio is
    /// the batch API's headline: datagrams moved per sendmmsg.
    Metrics transport_totals() const {
        Metrics t = transport_sr;
        t += transport_rs;
        return t;
    }
    double datagrams_per_send_syscall() const {
        return transport_totals().datagrams_per_send_syscall();
    }
};

enum class NetMode {
    Udp,     // loopback sockets, SteadyClock (real time)
    Inproc,  // in-process queues, ManualClock (deterministic)
};

/// A complete two-endpoint transfer in one process: A sends `count`
/// messages to B; with reverse_count > 0, B simultaneously sends
/// `reverse_count` back to A (and `piggyback` lets each direction's
/// acks ride the other's DATA).
template <runtime::EndpointCore Core>
class NetEngine {
public:
    using Options = typename Core::Options;

    explicit NetEngine(NetConfig cfg, Options options = {}, NetMode netmode = NetMode::Udp)
        : cfg_(std::move(cfg)), netmode_(netmode) {
        if (netmode_ == NetMode::Udp) {
            clock_ = &steady_clock_;
            auto [a, b] = UdpTransport::make_pair();
            a->enable_offload(cfg_.offload);
            b->enable_offload(cfg_.offload);
            raw_a_ = std::move(a);
            raw_b_ = std::move(b);
        } else {
            clock_ = &manual_clock_;
            auto [a, b] = InprocTransport::make_pair();
            // Both directions' buffer pools at full-frame capacity up
            // front, so no recycled buffer regrows mid-run when a small
            // ack's vector comes back around carrying a DATA+ACK frame.
            const std::size_t bufs = 4 * static_cast<std::size_t>(cfg_.w) + 32;
            a->reserve_buffers(bufs, cfg_.payload_size + 128);
            b->reserve_buffers(bufs, cfg_.payload_size + 128);
            raw_a_ = std::move(a);
            raw_b_ = std::move(b);
        }
        // One wheel per endpoint thread; the impairer of a direction
        // shares the wheel of the endpoint that sends through it.
        wheel_a_ = std::make_unique<TimerWheel>(*clock_);
        wheel_b_ = std::make_unique<TimerWheel>(*clock_);
        imp_a_ = std::make_unique<Impairer>(*raw_a_, *wheel_a_, cfg_.impair,
                                            runtime::mix_seed(cfg_.seed, 0xd1));
        imp_b_ = std::make_unique<Impairer>(*raw_b_, *wheel_b_,
                                            cfg_.impair_ack.value_or(cfg_.impair),
                                            runtime::mix_seed(cfg_.seed, 0xac));
        // Worst-case concurrent delayed copies per direction: a full
        // window of DATA plus its acks, doubled for duplication and
        // retransmission overlap.  Pre-warming here keeps a late loss
        // burst from growing the pools mid-measurement.
        const std::size_t slots = 4 * static_cast<std::size_t>(cfg_.w) + 32;
        imp_a_->reserve_slots(slots, cfg_.payload_size + 128);
        imp_b_->reserve_slots(slots, cfg_.payload_size + 128);
        NetConfig cfg_endpoint_a = cfg_;
        cfg_endpoint_a.rx_count = cfg_.reverse_count;
        NetConfig cfg_endpoint_b = cfg_;
        cfg_endpoint_b.count = cfg_.reverse_count;
        cfg_endpoint_b.rx_count = cfg_.count;
        a_ = std::make_unique<NetEndpoint<Core>>(cfg_endpoint_a, options, *wheel_a_, *imp_a_);
        b_ = std::make_unique<NetEndpoint<Core>>(cfg_endpoint_b, options, *wheel_b_, *imp_b_);
    }

    /// Runs the transfer to completion or the deadline; single-threaded
    /// (both endpoints serviced by the calling thread).  With
    /// NetMode::Inproc this is exactly reproducible from the seed.
    NetReport run() {
        return run([](NetEngine&) {});
    }

    /// run() with an observer called after every service iteration --
    /// benches use it to snapshot allocator / transport state mid-run
    /// (e.g. at the steady-state half-way point) without owning the
    /// loop.  The observer must not mutate the engine.
    template <typename Tick>
    NetReport run(Tick&& tick) {
        const SimTime start = clock_->now();
        const int fds[] = {raw_a_->fd(), raw_b_->fd()};
        const TimerWheel* const wheels[] = {wheel_a_.get(), wheel_b_.get()};
        a_->start();
        b_->start();
        while (!finished()) {
            if (clock_->now() - start > cfg_.deadline) break;
            // Fixed service order keeps Inproc runs deterministic.
            const std::size_t work = a_->poll() + b_->poll();
            tick(*this);
            if (work > 0) continue;
            if (netmode_ == NetMode::Inproc) {
                // Idle with empty queues: jump to the next timer deadline.
                const auto next = earliest_deadline(wheels);
                if (!next) break;  // no timers, no traffic: wedged
                manual_clock_.advance_to(*next);
            } else {
                idle_wait(fds, wheels);
            }
        }
        return make_report(start);
    }

    /// Live inner-transport counters, both directions summed -- the
    /// mid-run counterpart of NetReport::transport_totals().
    Metrics transport_snapshot() const {
        Metrics t = raw_a_->stats();
        t += raw_b_->stats();
        return t;
    }

    /// Runs with endpoint B on a worker thread -- the real deployment
    /// shape (two independent event loops).  Requires real time (Udp
    /// mode); determinism is naturally out the window.
    NetReport run_threaded() {
        return run_threaded([](NetEngine&) {});
    }

    /// run_threaded() with an observer called after every iteration of
    /// endpoint A's loop, on the calling thread (udp_transfer prints live
    /// progress from it).  B runs on its own thread meanwhile, so the
    /// observer may read endpoint A (sender()) only.
    template <typename Tick>
    NetReport run_threaded(Tick&& tick) {
        BACP_ASSERT_MSG(netmode_ == NetMode::Udp, "threaded run needs real time");
        const SimTime start = clock_->now();
        const int fds[] = {raw_a_->fd(), raw_b_->fd()};
        const TimerWheel* const wheels[] = {wheel_a_.get(), wheel_b_.get()};
        std::atomic<bool> stop{false};
        std::thread rx([this, &stop, &fds, &wheels] {
            b_->start();
            while (!stop.load(std::memory_order_relaxed)) {
                if (b_->poll() > 0) continue;
                idle_wait(std::span(fds).last(1), std::span(wheels).last(1));
            }
        });
        a_->start();
        while (!a_->done() && clock_->now() - start <= cfg_.deadline) {
            const std::size_t work = a_->poll();
            tick(*this);
            if (work == 0) idle_wait(std::span(fds).first(1), std::span(wheels).first(1));
        }
        stop.store(true, std::memory_order_relaxed);
        rx.join();
        // Both endpoints back on this thread: drain the in-flight tail
        // (B's last acks, a duplex run's reverse stragglers).  A healthy
        // run exits in a poll or two; a wedged one runs to the deadline,
        // same as run().
        while (!finished() && clock_->now() - start <= cfg_.deadline) {
            if (a_->poll() + b_->poll() == 0) idle_wait(fds, wheels);
        }
        return make_report(start);
    }

    /// Endpoint A originates the forward direction -- the "sender" of a
    /// one-way run; B its peer.  Both are full duplex endpoints.
    NetEndpoint<Core>& sender() { return *a_; }
    NetEndpoint<Core>& receiver() { return *b_; }

    /// Attach protocol-decision recorders to the two endpoints (the
    /// cross-runtime parity test compares them against a DES run's).
    void set_decision_logs(runtime::DecisionLog* a_log, runtime::DecisionLog* b_log) {
        a_->set_decision_log(a_log);
        b_->set_decision_log(b_log);
    }

private:
    bool finished() const { return a_->done() && b_->done(); }

    NetReport make_report(SimTime start) const {
        NetReport report;
        report.metrics = a_->metrics();
        report.metrics.add_counters_from(b_->metrics());
        report.metrics.start_time = start;
        report.metrics.end_time = clock_->now();
        report.bytes_delivered = b_->bytes_delivered();
        report.reverse_bytes_delivered = a_->bytes_delivered();
        report.payload_mismatches = a_->payload_mismatches() + b_->payload_mismatches();
        report.piggybacked = a_->piggybacked() + b_->piggybacked();
        report.standalone_acks = a_->standalone_acks() + b_->standalone_acks();
        report.impair_sr = imp_a_->impair_stats();
        report.impair_rs = imp_b_->impair_stats();
        report.transport_sr = raw_a_->stats();
        report.transport_rs = raw_b_->stats();
        // Each endpoint's timer-wheel batching rides in its transport
        // view, so one Metrics carries the whole per-direction story.
        wheel_a_->add_stats(report.transport_sr);
        wheel_b_->add_stats(report.transport_rs);
        report.elapsed = clock_->now() - start;
        report.completed =
            a_->done() && b_->done() && report.payload_mismatches == 0;
        return report;
    }

    NetConfig cfg_;
    NetMode netmode_;
    SteadyClock steady_clock_;
    ManualClock manual_clock_;
    Clock* clock_ = nullptr;
    std::unique_ptr<Transport> raw_a_;
    std::unique_ptr<Transport> raw_b_;
    std::unique_ptr<TimerWheel> wheel_a_;
    std::unique_ptr<TimerWheel> wheel_b_;
    std::unique_ptr<Impairer> imp_a_;
    std::unique_ptr<Impairer> imp_b_;
    std::unique_ptr<NetEndpoint<Core>> a_;
    std::unique_ptr<NetEndpoint<Core>> b_;
};

}  // namespace bacp::net
