#pragma once

/// \file endpoint_driver.hpp
/// The environment-independent protocol-driving layer.
///
/// EndpointDriver<Core, Env> owns every decision a session runtime makes
/// that does not depend on what kind of time or channel is underneath:
/// the four TimeoutMode disciplines, send-horizon window pumping, ack
/// absorption and the AckPolicy, resend-candidate rescans, the NAK fast
/// path, in-order delivery accounting, and the derived-timeout
/// computation.  The discrete-event runtime::Engine and the real-time
/// net::NetEndpoint (via DuplexDriver) are thin adapters over this class:
/// they supply an *Environment* -- a clock, a TimerService, and egress /
/// delivery / verification hooks -- and forward arriving protocol
/// messages to handle_ack / handle_nak / handle_data.  The driver logic
/// therefore exists exactly once and is exercised identically over
/// virtual and wall-clock time (tests/test_driver_parity.cpp pins that).
///
/// The one genuine environment difference is expressed as a capability
/// rather than forked code: Env::kHasOracle.  A DES can *prove*
/// quiescence (empty event queue => empty channels) and fires the oracle
/// timeout modes from an idle hook calling oracle_fire(); a real network
/// has no such oracle, so when kHasOracle is false the driver runs a
/// quiescence timer instead -- restarted on every send and ack while
/// messages are outstanding, firing after a full conservative timeout of
/// silence, by which time any copy in flight has aged out of the
/// channel.  The resend *sets* are the paper's in both worlds; only the
/// firing moment is heuristic.  See DESIGN.md (endpoint driver).
///
/// Timer timeouts default to L_SR + L_RS + max_ack_delay + margin
/// (derived_timeout below), the conservative bound that preserves the
/// paper's assertion 8 ("at most one copy of each data message or its
/// acknowledgment is in transit").

#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/ack_policy.hpp"
#include "runtime/endpoint_core.hpp"
#include "runtime/link_spec.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"
#include "sim/metrics.hpp"

namespace bacp::runtime {

/// One configuration for every protocol and both runtimes.  The DES
/// engine consumes it directly; net::NetConfig derives from it, adding
/// only the knobs a real network introduces (payload bytes, impairment,
/// transport batching).  Core-specific knobs (residue domain, reuse
/// interval, ...) live in the core's Options struct.
struct EngineConfig {
    Seq w = 8;
    Seq count = 1000;  // messages to transfer
    /// nullopt = the core's classic discipline (PerMessageTimer for the
    /// block-ack family and selective repeat, SimpleTimer for the
    /// single-timer baselines).
    std::optional<TimeoutMode> timeout_mode;
    SimTime timeout = 0;  // 0 = derive conservatively from links + ack policy
    AckPolicy ack_policy = AckPolicy::eager();
    LinkSpec data_link = LinkSpec::lossless();
    LinkSpec ack_link = LinkSpec::lossless();
    std::uint64_t seed = 1;
    SimTime deadline = 3600 * kSecond;
    std::size_t max_events = 50'000'000;
    bool record_trace = false;
    /// Check assertions 6-8 after every protocol step (unbounded BA cores
    /// over set-tracked channels only); violations throw AssertionError.
    bool check_invariants = false;
    /// Fast-retransmit extension (BA cores): the receiver NAKs the
    /// message blocking vr once a higher message has been held for the
    /// data lifetime, which proves vr's first copy lost; the sender
    /// resends it as soon as the previous copy has provably aged out of
    /// the channel.  Advisory: NAK loss or duplication affects only
    /// latency.  See DESIGN.md (extensions).
    bool enable_nak = false;
    /// Variable-window extension (paper SVI): AIMD adaptation of the
    /// effective window limit within [1, w].  Only meaningful when the
    /// data link models a bottleneck queue, and only for cores whose
    /// sender supports set_window_limit.
    bool adaptive_window = false;
    /// Open-loop workload: when > 0, messages become available one per
    /// interval (exponential gaps when poisson_arrivals) instead of all
    /// upfront; `count` still bounds the total.  Latency then measures
    /// arrival-to-delivery sojourn (queueing included).
    SimTime arrival_interval = 0;
    bool poisson_arrivals = false;
    /// Application-gated workload: start() releases nothing, and each
    /// message becomes available only when the application calls
    /// EndpointDriver::release() -- the link layer's send() path, where
    /// payload bytes exist only after the caller queues them.  `count`
    /// still bounds the total.  Mutually exclusive with
    /// arrival_interval > 0.
    bool app_arrivals = false;
};

/// The conservative retransmission timeout: one data lifetime out, one
/// ack lifetime back, the longest the receiver may sit on an ack, plus a
/// millisecond of margin.  Waiting this long before resending preserves
/// the paper's assertion 8 -- at most one copy of each data message or
/// its acknowledgment is in transit -- because the previous copy (and
/// any ack it provoked) has provably aged out of both channels.  Both
/// runtimes derive from here; tests/test_runtime_util.cpp pins the bound.
inline SimTime derived_timeout(const LinkSpec& data_link, const LinkSpec& ack_link,
                               const AckPolicy& ack_policy) {
    return data_link.max_lifetime() + ack_link.max_lifetime() + ack_policy.max_ack_delay() +
           kMillisecond;
}

/// The timeout a configuration actually runs with: explicit, or derived.
inline SimTime effective_timeout(const EngineConfig& cfg) {
    return cfg.timeout > 0 ? cfg.timeout
                           : derived_timeout(cfg.data_link, cfg.ack_link, cfg.ack_policy);
}

/// Optional core extension: the wire residue a true sequence number
/// travels under (bounded SV, threshold counters).  Environments that
/// key per-frame state by wire field (the net runtime's payload stash)
/// consult this; cores without it use unbounded wire seqnums, where the
/// mapping is the identity.
template <typename C>
inline constexpr bool kCoreWireMapped =
    requires(const C& c, Seq s) { { c.wire_seq(s) } -> std::convertible_to<Seq>; };

/// Detects cores whose block acks are residue ranges that may wrap the
/// sequence-number domain (bounded BA: ack (lo, hi) with hi < lo means
/// lo..domain-1 then 0..hi).  Struct-passing environments need not care
/// -- the sender cores consume wrapped ranges natively via residue
/// offsets -- but a wire codec cannot encode hi < lo as one frame, so
/// wire environments split the block in two at the domain edge.
template <typename C>
inline constexpr bool kCoreAckWireWrapped =
    requires(const C& c) { { c.ack_wire_domain() } -> std::convertible_to<Seq>; };

/// How an acknowledgment left the receiver -- lets environments label
/// egress without re-deriving the reason (the DES trace distinguishes
/// "ack" from "dup-ack"; counters already did).
enum class AckKind : std::uint8_t {
    Block,  // action 5 / immediate per-arrival ack
    Dup,    // BA-style duplicate re-ack (action 3)
};

/// One externally visible protocol decision, for cross-runtime parity
/// checks.  Ranges are wire values exactly as sent; seqs are true
/// sequence numbers.
struct Decision {
    enum Kind : std::uint8_t { Send, Resend, AckBlock, AckDup, Nak, Deliver };

    SimTime time = 0;
    char endpoint = '?';  // 'S' sender half, 'R' receiver half
    Kind kind = Send;
    Seq lo = 0;
    Seq hi = 0;

    friend bool operator==(const Decision&, const Decision&) = default;
};

/// Optional recorder the driver writes every decision into (nullptr =
/// zero cost).  The cross-runtime parity test attaches one to a DES run
/// and one to each net endpoint and compares the streams.
struct DecisionLog {
    std::vector<Decision> entries;

    void note(SimTime t, char endpoint, Decision::Kind kind, Seq lo, Seq hi) {
        entries.push_back(Decision{t, endpoint, kind, lo, hi});
    }
};

/// The sessions of one receive arena whose action 5 waits for the
/// arena's end.  A loop that demuxes one socket to many sessions
/// (net::Server shards, net::ClientFleet) hands a whole arena of
/// datagrams to its sessions before one flush puts their replies on the
/// wire.  A driver attached to the loop's batch (hold_acks_in) holds the
/// ack its policy would fire at once and registers here, once; release()
/// then fires each held block.  k DATA of one session in one arena leave
/// as one block ack instead of k, in the same flush -- the paper leaves
/// the firing moment of action 5 free, and the wire time does not move.
/// Capacity is fixed: one datagram registers at most one session, and
/// the loop releases after every arena, so the arena's datagram count
/// bounds the list.  A driver destroyed while registered (an evicted or
/// reset session) removes itself, and its held block is lost.
class AckBatch {
public:
    explicit AckBatch(std::size_t capacity) { held_.reserve(capacity); }

    AckBatch(const AckBatch&) = delete;
    AckBatch& operator=(const AckBatch&) = delete;

    /// Fires every held ack, in the order the sessions registered.
    void release() {
        for (const Holder& h : held_) h.release(h.driver);
        held_.clear();
    }

    bool empty() const { return held_.empty(); }

private:
    template <EndpointCore, typename>
    friend class EndpointDriver;

    struct Holder {
        void* driver;
        void (*release)(void*);
    };

    void hold(Holder h) {
        BACP_ASSERT_MSG(held_.size() < held_.capacity(), "more held acks than arena datagrams");
        held_.push_back(h);
    }

    void forget(const void* driver) {
        std::erase_if(held_, [driver](const Holder& h) { return h.driver == driver; });
    }

    std::vector<Holder> held_;
};

/// What an Environment must supply.  Checked where the adapter type is
/// complete (the driver's constructor), not at class scope, because
/// adapters embed the driver and hand themselves in while still
/// incomplete.
// clang-format off
template <typename E>
concept DriverEnvironment =
    requires(E env, const proto::Data& data, const proto::Ack& ack,
             const proto::Nak& nak, Seq seq, bool retx) {
        /// true: the environment can prove quiescence and calls
        /// oracle_fire() from an idle hook (DES).  false: the driver
        /// approximates with the quiescence timer (real time).
        { E::kHasOracle } -> std::convertible_to<bool>;
        { env.timer_service() } -> std::convertible_to<TimerService&>;
        { env.now() } -> std::convertible_to<SimTime>;
        /// Egress: put the frame on the wire (trace + SimChannel::send in
        /// the DES; wire::codec + batch staging in the net runtime).
        env.send_data(data, seq, retx);
        env.send_ack(ack, AckKind::Block);
        env.send_nak(nak);
        /// One in-order delivery of \p seq (payload handoff/verification
        /// in the net runtime; no-op in the DES).
        env.on_delivery(seq);
        /// After every completed protocol step (arrival or ack flush) --
        /// the DES invariant-check hook; no-op in the net runtime.
        env.after_step();
    };
// clang-format on

/// True seq -> live per-message timer (see SeqRing).
using SeqTimerTable = SeqRing<TimerId, kInvalidTimer>;

template <EndpointCore Core, typename Env>
class EndpointDriver {
public:
    using Options = typename Core::Options;

    static constexpr bool kTimeGatedSend = kCoreTimeGatedSend<Core>;
    static constexpr bool kGatedResend = kCoreGatedResend<Core>;
    static constexpr bool kHandlesNak = kCoreHandlesNak<Core>;

    /// \p env must outlive the driver; adapters embed the driver and
    /// pass *this.
    EndpointDriver(const EngineConfig& cfg, Options options, Env& env)
        : cfg_(cfg),
          mode_(cfg.timeout_mode.value_or(Core::kDefaultTimeoutMode)),
          env_(env),
          core_(cfg_, std::move(options)),
          rng_arrivals_(mix_seed(cfg_.seed, 0xa7)),
          ack_flush_timer_(env.timer_service(), [this] { flush_ack(); }),
          simple_timer_(env.timer_service(), [this] { on_simple_timeout(); }),
          blocked_timer_(env.timer_service(), [this] { pump_send(); }),
          quiescence_timer_(env.timer_service(), [this] { on_quiescence(); }),
          arrival_timer_(env.timer_service(), [this] { on_arrival_tick(); }) {
        static_assert(DriverEnvironment<Env>);
        timeout_ = effective_timeout(cfg_);
        data_lifetime_ = cfg_.data_link.max_lifetime();
        // The sender's live span is at most w for the paper's cores, so
        // sizing the per-seq rings for it now keeps a session that later
        // widens its span (a loss burst) from allocating mid-run.  Hole
        // reuse or a deep open-loop backlog can still grow them.
        if (cfg_.count > 0) {
            const auto span = static_cast<std::size_t>(cfg_.w);
            txlog_.reserve(span);
            first_send_.reserve(span);
            pm_timers_.reserve(span);
            if (cfg_.arrival_interval > 0) arrival_time_.reserve(span);
        }
        seq_scratch_.reserve(cfg_.w + 1);
    }

    EndpointDriver(const EndpointDriver&) = delete;
    EndpointDriver& operator=(const EndpointDriver&) = delete;

    ~EndpointDriver() {
        // Per-message expiries are raw TimerService timers (the OneShot
        // members cancel themselves); reclaim them so no closure on the
        // service can fire into a dead driver.
        pm_timers_.for_each([this](TimerId id) { env_.timer_service().cancel(id); });
        if (batch_held_) ack_batch_->forget(this);
    }

    /// Opens the faucet: stamps the start time, releases the workload
    /// (all upfront, or via the open-loop arrival process), and pumps the
    /// first window.  Call once, from the sending endpoint.
    void start() {
        metrics_.start_time = env_.now();
        if (cfg_.app_arrivals) {
            // Nothing to release yet: the application feeds messages in
            // through release() as it queues their payloads.
        } else if (cfg_.arrival_interval > 0) {
            app_released_ = 0;
            schedule_arrival();
        } else {
            app_released_ = cfg_.count;
        }
        pump_send();
    }

    /// Releases \p n more messages into the window (app_arrivals mode):
    /// the application has queued their payloads, so the environment's
    /// payload source can now serve them.  Clamped to `count`; pumps
    /// immediately, so frames may egress from inside this call.
    void release(Seq n) {
        app_released_ = std::min<Seq>(cfg_.count, app_released_ + n);
        pump_send();
    }

    // ---- ingress (the environment decodes, then forwards) -----------------

    void handle_ack(const proto::Ack& ack) {
        ++metrics_.acks_received;
        core_.on_ack(ack, txview());
        // Sender-observed latency: sweep the retirement cursor over
        // messages this ack (cumulatively) settled.  can_resend() going
        // false is the core-agnostic "acknowledged" signal (the same one
        // per-message timers consult), and the cursor makes the sweep
        // O(newly acked) amortized.
        while (ack_cursor_ < sent_new_ && !core_.can_resend(ack_cursor_)) {
            const SimTime sent = first_send_.get(ack_cursor_);
            if (sent != kNever) {
                ack_latency_->add(env_.now() - sent);
            }
            // Reclaim the retired message's expiry timer now instead of
            // letting it fire as a no-op: lazy cancellation would keep
            // one live timer per message sent within a timeout window,
            // and the heap's high-water mark with it, unbounded by w.
            if (mode_ == TimeoutMode::PerMessageTimer) {
                const TimerId id = pm_timers_.get(ack_cursor_);
                if (id != kInvalidTimer) {
                    env_.timer_service().cancel(id);
                    pm_timers_.clear(ack_cursor_);
                }
            }
            ++ack_cursor_;
        }
        if (mode_ == TimeoutMode::SimpleTimer && !core_.has_outstanding()) {
            simple_timer_.cancel();
        }
        pump_send();
        if constexpr (kGatedResend) {
            // SIV's speed advantage: an arriving ack can unblock the
            // resend gate for already-matured messages; they go out
            // immediately, with no timeout period between successive
            // resends (paper SIV).
            if (mode_ == TimeoutMode::PerMessageTimer) rescan_matured();
        }
        if constexpr (!Env::kHasOracle) touch_quiescence();
        env_.after_step();
    }

    void handle_nak(const proto::Nak& nak) {
        ++metrics_.naks_received;
        if constexpr (kHandlesNak) {
            const std::optional<Seq> target = core_.on_nak(nak, txview());
            if (!target) return;
            ++metrics_.fast_retx;
            transmit(core_.resend(*target, env_.now()), *target, /*retx=*/true);
        } else if constexpr (Env::kHasOracle) {
            // The DES world is closed: a NAK can only reach a core that
            // produced one, so this is a wiring bug.
            BACP_ASSERT_MSG(false, "NAK received by a core without NAK support");
        }
        // On a real network a stray NAK may be a duplicate from an
        // earlier impairment; cores without NAK support ignore it.
    }

    void handle_data(const proto::Data& msg) {
        ++metrics_.data_received;
        const RxOutcome out = core_.on_data(msg, env_.now());
        if (out.rejected) {
            // Semantically impossible arrival (e.g. seq beyond nr + w): a
            // CRC-valid-but-corrupted frame, or a peer speaking a
            // different configuration.  Counted with the decode errors
            // and otherwise treated as loss -- the timers recover.
            ++metrics_.decode_errors;
            env_.after_step();
            return;
        }
        if (out.dup_ack) {
            ++metrics_.duplicates;
            ++metrics_.dup_acks;
            log(Decision::AckDup, 'R', out.dup_ack->lo, out.dup_ack->hi);
            env_.send_ack(*out.dup_ack, AckKind::Dup);
            env_.after_step();
            return;
        }
        if (out.duplicate) ++metrics_.duplicates;
        for (Seq k = 0; k < out.delivered; ++k) note_delivery();
        if (out.immediate_ack) {
            ++metrics_.acks_sent;
            log(Decision::AckBlock, 'R', out.immediate_ack->lo, out.immediate_ack->hi);
            env_.send_ack(*out.immediate_ack, AckKind::Block);
        }
        if (out.nak) {
            ++metrics_.naks_sent;
            log(Decision::Nak, 'R', out.nak->seq, out.nak->seq);
            env_.send_nak(*out.nak);
        }
        // Action 5 scheduling per the ack policy.  A batched receive
        // loop takes the immediate flush at the end of its arena.
        const Seq pending = core_.ack_pending();
        if (pending >= cfg_.ack_policy.threshold) {
            if (ack_batch_ == nullptr) {
                flush_ack();
            } else if (!batch_held_) {
                batch_held_ = true;
                ack_batch_->hold({this, [](void* self) {
                                      static_cast<EndpointDriver*>(self)->end_batch();
                                  }});
            }
        } else if (pending > 0 && !ack_flush_timer_.armed()) {
            ack_flush_timer_.restart(cfg_.ack_policy.flush_delay);
        }
        env_.after_step();
    }

    /// Ends the ack policy's hold early: the pending block is decided
    /// now -- counted and logged exactly as a flush would -- and handed
    /// to the caller instead of egressing.  DuplexDriver rides it on the
    /// outbound DATA that cut the hold short.
    std::optional<proto::Ack> take_held_ack() {
        if (core_.ack_pending() == 0) return std::nullopt;
        ack_flush_timer_.cancel();
        const proto::Ack ack = core_.make_ack();
        ++metrics_.acks_sent;
        log(Decision::AckBlock, 'R', ack.lo, ack.hi);
        return ack;
    }

    // ---- oracle hook (environments with provable quiescence) ---------------

    /// Fires the oracle timeout disciplines at a proven idle point.  The
    /// environment is responsible for the proof (the DES asserts both
    /// channels empty before calling).  Returns whether anything was
    /// resent (i.e. the idle point produced new work).
    bool oracle_fire()
        requires(Env::kHasOracle)
    {
        if (!core_.has_outstanding()) return false;
        // At an idle point the channels are provably empty (the *SR/*RS
        // conjuncts of the guards hold trivially), but the receiver may
        // hold out-of-order messages it cannot acknowledge yet -- the
        // "(i < nr || !rcvd[i])" conjunct must still be consulted.
        if (mode_ == TimeoutMode::OracleSimple) {
            // Paper SII guard: na != ns, channels empty, !rcvd[nr].  At an
            // idle point an eager/flushed receiver has nr == vr and
            // !rcvd[vr], so the remaining conjuncts hold automatically.
            resend_simple_set();
            return true;
        }
        bool any = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if constexpr (kGatedResend) {
                if (core_.timeout_eligible(true_seq, /*oracle=*/true) == false) continue;
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
            any = true;
        }
        // na always passes the guard (na < nr, or na == nr with !rcvd[nr]
        // at idle), so progress is guaranteed.
        BACP_ASSERT_MSG(any, "oracle timeout found no eligible candidate");
        return true;
    }

    // ---- chaos hooks (src/chaos fault injection) ---------------------------

    /// Applies one seeded corruption to the core's protocol state and
    /// then re-arms the timer discipline over the corrupted state -- a
    /// power-cycled peer restarts its timers too, so recovery must not
    /// depend on timers armed before the fault.  Returns the core's
    /// description of what was corrupted ("" = state offered nothing).
    std::string chaos_corrupt_state(Rng& rng)
        requires kCoreCorruptible<Core>
    {
        const std::string what = core_.corrupt_state(rng);
        if (!what.empty()) chaos_rearm();
        return what;
    }

    /// Scrambles the timer sets without touching protocol state: every
    /// live per-message expiry is cancelled and re-armed at a uniformly
    /// random fraction of the timeout, and the single/quiescence timers
    /// are similarly perturbed.  Early fires re-arm instead of resending
    /// (the one-copy maturity rule still gates the wire), so scrambling
    /// costs spurious wakeups, never a silently dropped retransmission.
    /// Returns the number of timers perturbed.
    std::size_t chaos_scramble_timers(Rng& rng) {
        std::size_t scrambled = 0;
        if (mode_ == TimeoutMode::PerMessageTimer) {
            seq_scratch_.clear();
            core_.resend_candidates(seq_scratch_);
            for (const Seq true_seq : seq_scratch_) {
                const TimerId prev = pm_timers_.get(true_seq);
                if (prev != kInvalidTimer) env_.timer_service().cancel(prev);
                const SimTime delay = chaos_delay(rng);
                const TimerId id =
                    env_.timer_service().schedule_after(delay, [this, true_seq] {
                        pm_timers_.clear(true_seq);
                        chaos_premature_fire(true_seq);
                    });
                pm_timers_.set(true_seq, id, ack_cursor_);
                ++scrambled;
            }
        }
        if (simple_timer_.armed()) {
            simple_timer_.restart(chaos_delay(rng));
            ++scrambled;
        }
        if (quiescence_timer_.armed()) {
            quiescence_timer_.restart(chaos_delay(rng));
            ++scrambled;
        }
        return scrambled;
    }

    // ---- observers ---------------------------------------------------------

    /// Every message handed over and acknowledged (the sending half's
    /// completion condition).
    bool all_sent_and_acked() const {
        return sent_new_ == cfg_.count && !core_.has_outstanding();
    }

    /// Full-session completion: both halves done (meaningful when one
    /// driver runs both, i.e. the DES).
    bool completed() const {
        return all_sent_and_acked() && delivered_ == cfg_.count;
    }

    Seq delivered() const { return delivered_; }
    Seq sent_new() const { return sent_new_; }
    /// Messages released into the window so far (the app-gated queue is
    /// released() - sent_new()).
    Seq released() const { return app_released_; }
    /// Length of the retired prefix: every message below it is
    /// acknowledged, so its payload and per-seq state are dead.
    Seq ack_cursor() const { return ack_cursor_; }
    /// First-transmission instant of \p true_seq: exact for every seq at
    /// or above ack_cursor(), kNever when never recorded or since
    /// overwritten.  Lets a receiver in the same clock domain measure
    /// delivery latency.
    SimTime first_sent_at(Seq true_seq) const { return first_send_.get(true_seq); }
    SimTime timeout_value() const { return timeout_; }
    TimeoutMode mode() const { return mode_; }
    const Core& core() const { return core_; }
    const sim::Metrics& metrics() const { return metrics_; }
    /// Environments own the non-protocol counters (channel drops, decode
    /// errors) and the report's time stamps; they write them here.
    sim::Metrics& metrics_mut() { return metrics_; }

    /// Records each retired message's ack latency into \p sink instead
    /// of metrics().ack_latency, which then stays empty: an owner of
    /// many sessions points them all at one histogram.  \p sink must
    /// outlive the driver; call before start().
    void record_ack_latency_into(Histogram& sink) { ack_latency_ = &sink; }

    /// Attach (or detach, with nullptr) a decision recorder.
    void set_decision_log(DecisionLog* log) { log_ = log; }

    /// Holds every immediate action 5 until \p batch is released (see
    /// AckBatch).  \p batch must outlive the driver; call before the
    /// first DATA arrives.
    void hold_acks_in(AckBatch& batch) { ack_batch_ = &batch; }

private:
    TxView txview() const { return txlog_.view(env_.now(), data_lifetime_); }

    void log(Decision::Kind kind, char endpoint, Seq lo, Seq hi) {
        if (log_ != nullptr) log_->note(env_.now(), endpoint, kind, lo, hi);
    }

    // ---- sender half -------------------------------------------------------

    /// Open-loop arrival process: releases one message per interval.
    void schedule_arrival() {
        if (app_released_ >= cfg_.count) return;
        const SimTime gap =
            cfg_.poisson_arrivals
                ? static_cast<SimTime>(
                      rng_arrivals_.exponential(static_cast<double>(cfg_.arrival_interval)))
                : cfg_.arrival_interval;
        arrival_timer_.restart(gap);
    }

    void on_arrival_tick() {
        // Read back at delivery; a sending-only half never delivers, so
        // its floor follows the acks instead.
        arrival_time_.set(app_released_, env_.now(), std::max(ack_cursor_, delivered_));
        ++app_released_;
        pump_send();
        schedule_arrival();
    }

    void pump_send() {
        while (sent_new_ < cfg_.count && sent_new_ < app_released_ && core_.can_send_new()) {
            if constexpr (kTimeGatedSend) {
                // One now() snapshot for the whole decision.  Inside a
                // net::TimerWheel step (each datagram, fire_due pass and
                // application call) now() returns one reading anyway;
                // the snapshot covers callers outside a step, where a
                // real clock advances between reads and a deadline that
                // tested as future against the first read can be past by
                // the next -- handing the timer wheel a negative delay.
                const SimTime now = env_.now();
                const SimTime ready = core_.send_blocked_until(txlog_.view(now, data_lifetime_));
                if (ready > now) {
                    ++metrics_.send_gate_stalls;
                    if (!blocked_timer_.armed()) blocked_timer_.restart(ready - now);
                    return;
                }
            }
            const proto::Data msg = core_.send_new(env_.now());
            const Seq true_seq = sent_new_++;
            first_send_.set(true_seq, env_.now(), ack_cursor_);
            transmit(msg, true_seq, /*retx=*/false);
        }
    }

    void transmit(const proto::Data& msg, Seq true_seq, bool retx) {
        if (retx) {
            ++metrics_.data_retx;
        } else {
            ++metrics_.data_new;
        }
        log(retx ? Decision::Resend : Decision::Send, 'S', true_seq, true_seq);
        txlog_.note(true_seq, env_.now(), ack_cursor_);
        env_.send_data(msg, true_seq, retx);
        switch (mode_) {
            case TimeoutMode::SimpleTimer:
                simple_timer_.restart(timeout_);
                break;
            case TimeoutMode::PerMessageTimer:
                schedule_per_message(true_seq);
                break;
            default:
                // Oracle modes: the DES idle hook fires them; real time
                // watches for silence instead.
                if constexpr (!Env::kHasOracle) touch_quiescence();
                break;
        }
    }

    /// Per-message expiry timer.  The newest copy owns the seq's timer:
    /// rescheduling cancels the previous one (whose fire was a provable
    /// no-op anyway -- matured() fails while a newer copy is fresh), and
    /// the per-seq ring lets the destructor reclaim every live closure.
    void schedule_per_message(Seq true_seq) {
        const TimerId prev = pm_timers_.get(true_seq);
        if (prev != kInvalidTimer) env_.timer_service().cancel(prev);
        const TimerId id = env_.timer_service().schedule_after(timeout_, [this, true_seq] {
            pm_timers_.clear(true_seq);
            per_message_fire(true_seq);
        });
        pm_timers_.set(true_seq, id, ack_cursor_);
    }

    void on_simple_timeout() {
        if (!core_.has_outstanding()) return;
        resend_simple_set();
    }

    void resend_simple_set() {
        seq_scratch_.clear();
        core_.simple_timeout_set(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
        }
    }

    bool matured(Seq true_seq) const { return txlog_.matured(true_seq, env_.now(), timeout_); }

    void per_message_fire(Seq true_seq) {
        if (!core_.can_resend(true_seq)) return;  // acknowledged meanwhile
        if (!matured(true_seq)) return;           // a newer copy owns the timer
        if constexpr (kGatedResend) {
            if (!core_.timeout_eligible(true_seq, /*oracle=*/false)) {
                gate_waiters_ = true;  // reconsidered on next ack
                return;
            }
        }
        transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
    }

    /// Resends every matured message the SIV gate now admits.  A message
    /// only reaches "matured but gate-blocked" through per_message_fire
    /// (its newest copy's timer fires exactly at maturity), which sets
    /// gate_waiters_; when no fire has been blocked since the last scan
    /// came up dry there is nothing to reconsider, and the per-ack
    /// O(window) candidate scan is skipped -- the common case on healthy
    /// links, where this runs on every single ack.
    void rescan_matured() {
        if (!gate_waiters_) return;
        bool still_blocked = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if (!matured(true_seq)) continue;
            if constexpr (kGatedResend) {
                if (!core_.timeout_eligible(true_seq, /*oracle=*/false)) {
                    still_blocked = true;
                    continue;
                }
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
        }
        gate_waiters_ = still_blocked;
    }

    // ---- chaos internals ---------------------------------------------------

    SimTime chaos_delay(Rng& rng) {
        return static_cast<SimTime>(rng.uniform(static_cast<std::uint64_t>(timeout_) + 1));
    }

    /// Post-corruption timer discipline: every resend candidate the
    /// corrupted state now exposes gets an expiry (forgotten acks revive
    /// seqs whose timers were reclaimed on acknowledgment), and a
    /// receiver with a regressed nr gets its re-ack flushed on the usual
    /// policy delay instead of waiting for the next arrival.
    void chaos_rearm() {
        if (mode_ == TimeoutMode::PerMessageTimer) {
            seq_scratch_.clear();
            core_.resend_candidates(seq_scratch_);
            for (const Seq true_seq : seq_scratch_) {
                if (pm_timers_.get(true_seq) == kInvalidTimer) {
                    schedule_per_message(true_seq);
                }
            }
        } else if (mode_ == TimeoutMode::SimpleTimer) {
            if (core_.has_outstanding() && !simple_timer_.armed()) {
                simple_timer_.restart(timeout_);
            }
        } else {
            if constexpr (!Env::kHasOracle) touch_quiescence();
        }
        if (core_.ack_pending() > 0 && !ack_flush_timer_.armed()) {
            ack_flush_timer_.restart(cfg_.ack_policy.flush_delay);
        }
        // The ack-latency sweep must not stall on seqs the corruption
        // re-opened: the cursor only ever moves forward, so clamp it past
        // nothing -- but the sweep condition consults can_resend, which a
        // revived seq now satisfies.  Re-sweeping later acks would
        // double-count latency samples, so leave the cursor where it is;
        // revived seqs simply record no second latency sample.
        pump_send();
    }

    /// Fire path for scrambled timers: an early fire (the copy has not
    /// matured) re-arms for the normal expiry instead of falling through
    /// per_message_fire's maturity check, which would silently drop the
    /// seq's timer forever.
    void chaos_premature_fire(Seq true_seq) {
        if (!core_.can_resend(true_seq)) return;
        if (!matured(true_seq)) {
            schedule_per_message(true_seq);
            return;
        }
        per_message_fire(true_seq);
    }

    // ---- quiescence approximation (environments without an oracle) ---------

    /// Oracle-mode activity notification: while anything is outstanding,
    /// (re)arm the quiescence timer; a full timeout of silence stands in
    /// for the provable idle point.
    void touch_quiescence() {
        if (mode_ != TimeoutMode::OracleSimple && mode_ != TimeoutMode::OraclePerMessage) {
            return;
        }
        if (core_.has_outstanding()) {
            quiescence_timer_.restart(timeout_);
        } else {
            quiescence_timer_.cancel();
        }
    }

    void on_quiescence() {
        if (!core_.has_outstanding()) return;
        if (mode_ == TimeoutMode::OracleSimple) {
            resend_simple_set();
            return;  // transmit re-armed the timer via touch_quiescence
        }
        bool any = false;
        seq_scratch_.clear();
        core_.resend_candidates(seq_scratch_);
        for (const Seq true_seq : seq_scratch_) {
            if constexpr (kGatedResend) {
                // oracle=true consults the receiver half of *this* core,
                // which is empty at the sending endpoint, so the gate
                // reduces to the sender-side conjuncts -- conservative in
                // the safe direction (never blocks a needed resend).
                if (!core_.timeout_eligible(true_seq, /*oracle=*/true)) continue;
            }
            transmit(core_.resend(true_seq, env_.now()), true_seq, /*retx=*/true);
            any = true;
        }
        if (!any) quiescence_timer_.restart(timeout_);  // keep watching
    }

    // ---- receiver half -----------------------------------------------------

    void note_delivery() {
        const Seq true_seq = delivered_++;
        ++metrics_.delivered;
        env_.on_delivery(true_seq);
        log(Decision::Deliver, 'R', true_seq, true_seq);
        // Open loop measures arrival-to-delivery sojourn; closed loop
        // measures first-transmission-to-delivery.  An environment that
        // only runs the receiving half has neither table filled in and
        // records no latency (its clock is not the sender's).
        const SimTime arrived = arrival_time_.get(true_seq);
        if (arrived != kNever) {
            metrics_.latency.add(env_.now() - arrived);
        } else {
            const SimTime sent = first_send_.get(true_seq);
            if (sent != kNever) metrics_.latency.add(env_.now() - sent);
        }
        if (delivered_ == cfg_.count) metrics_.end_time = env_.now();
    }

    /// End of the receive arena (AckBatch::release): fires the block held
    /// since this arena's first DATA reached the policy threshold --
    /// unless reverse DATA took it meanwhile (take_held_ack).
    void end_batch() {
        batch_held_ = false;
        flush_ack();
    }

    void flush_ack() {
        ack_flush_timer_.cancel();
        const std::optional<proto::Ack> ack = take_held_ack();
        if (!ack) return;
        env_.send_ack(*ack, AckKind::Block);
        env_.after_step();
    }

    EngineConfig cfg_;
    TimeoutMode mode_;
    Env& env_;
    Core core_;
    Rng rng_arrivals_;
    OneShotTimer ack_flush_timer_;
    OneShotTimer simple_timer_;
    OneShotTimer blocked_timer_;     // wakes the pump when a send gate clears
    OneShotTimer quiescence_timer_;  // !kHasOracle oracle-mode approximation
    OneShotTimer arrival_timer_;     // open-loop workload ticks
    sim::Metrics metrics_;
    Histogram* ack_latency_ = &metrics_.ack_latency;  // see record_ack_latency_into

    SimTime timeout_ = 0;
    SimTime data_lifetime_ = 0;  // cached cfg_.data_link.max_lifetime()
    bool gate_waiters_ = false;  // a per-message fire was gate-blocked
    bool batch_held_ = false;    // registered in ack_batch_ until its release
    AckBatch* ack_batch_ = nullptr;  // see hold_acks_in
    Seq sent_new_ = 0;      // new messages handed to the wire (== true ns)
    Seq ack_cursor_ = 0;    // messages retired by acks; floor of the per-seq rings
    Seq delivered_ = 0;     // in-order deliveries at the receiver (== true vr)
    Seq app_released_ = 0;  // open loop / app-gated: messages made available so far
    SeqTimeTable arrival_time_;     // open loop only
    SeqTimeTable first_send_;       // true seq -> first tx time
    TxLog txlog_;                   // true seq -> last tx time
    SeqTimerTable pm_timers_;       // true seq -> live per-message timer
    std::vector<Seq> seq_scratch_;  // candidate sets, reused per timeout/ack
    DecisionLog* log_ = nullptr;
};

}  // namespace bacp::runtime
