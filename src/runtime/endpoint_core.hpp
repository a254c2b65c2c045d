#pragma once

/// \file endpoint_core.hpp
/// The EndpointCore protocol surface and the transport-agnostic helpers
/// shared by the two runtimes that drive cores: the discrete-event
/// runtime::Engine (virtual time, sim::SimChannel) and the real-time
/// net::NetEndpoint (wall clock, UDP or in-process datagrams).  Extracted from engine.hpp so a core written once runs
/// unchanged over both -- the paper's protocol machines never learn
/// which kind of time or channel is underneath them.

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "runtime/timeout_mode.hpp"

namespace bacp::runtime {

/// True-seq -> value table over the live span of a session's sequence
/// space.  True sequence numbers are assigned contiguously from 0, but a
/// session only ever consults the ones at or above a *floor* that moves
/// forward with it (the sender's retired prefix, the receiver's delivery
/// count), and the span above the floor is bounded by the protocol: at
/// most w for the paper's senders, buffer_cap for hole reuse, the
/// backlog for open-loop arrival stamps.  The table is a power-of-two
/// ring keyed by seq with each slot tagged by its seq, so memory follows
/// that span instead of the message count, reads of overwritten or
/// never-written seqs return kEmpty, and the steady state neither
/// allocates nor hashes.  The ring grows (rehashing the live slots) only
/// when a write would not fit the span [min(seq, floor), top) -- which
/// happens while a session warms up, unless reserve() sized it for the
/// span up front.
template <typename T, T kEmpty>
class SeqRing {
public:
    /// Stores \p value for \p true_seq; \p floor is the lowest seq the
    /// owner will still read.
    void set(Seq true_seq, T value, Seq floor) {
        const Seq lo = std::min(true_seq, floor);
        const Seq top = std::max(top_, true_seq + 1);
        if (top - lo > slots_.size()) grow(lo, top);
        Slot& slot = slots_[static_cast<std::size_t>(true_seq) & mask_];
        assert(slot.seq == true_seq || slot.seq == kNoSeq || slot.seq < lo);  // never a live entry
        slot = Slot{true_seq, value};
        top_ = top;
    }

    /// Sizes an empty ring for a live span of \p span seqs, so an owner
    /// whose span stays within it never allocates again.
    void reserve(std::size_t span) {
        if (slots_.empty()) grow(0, static_cast<Seq>(span));
    }

    /// kEmpty when the seq was never recorded or has been overwritten.
    T get(Seq true_seq) const {
        if (slots_.empty()) return kEmpty;
        const Slot& slot = slots_[static_cast<std::size_t>(true_seq) & mask_];
        return slot.seq == true_seq ? slot.value : kEmpty;
    }

    void clear(Seq true_seq) {
        if (slots_.empty()) return;
        Slot& slot = slots_[static_cast<std::size_t>(true_seq) & mask_];
        if (slot.seq == true_seq) slot.value = kEmpty;
    }

    /// Calls \p fn with every stored non-empty value.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& slot : slots_) {
            if (slot.value != kEmpty) fn(slot.value);
        }
    }

private:
    static constexpr Seq kNoSeq = ~Seq{0};

    struct Slot {
        Seq seq = kNoSeq;
        T value = kEmpty;
    };

    void grow(Seq lo, Seq top) {
        std::size_t cap = std::max<std::size_t>(8, 2 * slots_.size());
        while (cap < top - lo) cap *= 2;
        std::vector<Slot> next(cap);
        for (const Slot& slot : slots_) {
            if (slot.seq != kNoSeq && slot.seq >= lo && slot.seq < top) {
                next[static_cast<std::size_t>(slot.seq) & (cap - 1)] = slot;
            }
        }
        slots_ = std::move(next);
        mask_ = cap - 1;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    Seq top_ = 0;  // one past the highest seq ever stored
};

/// Transmission times by true seq (kNever = not recorded).
inline constexpr SimTime kNever = -1;
using SeqTimeTable = SeqRing<SimTime, kNever>;

/// Read-only view of a runtime's transmission log, handed to cores that
/// need transmission times (send horizon, NAK one-copy rule).
struct TxView {
    SimTime now = 0;
    SimTime data_lifetime = 0;  // max time a copy can survive in C_SR
    const SeqTimeTable* last_tx = nullptr;

    std::optional<SimTime> last_tx_time(Seq true_seq) const {
        const SimTime t = last_tx->get(true_seq);
        if (t == kNever) return std::nullopt;
        return t;
    }
};

/// What the receiver half of a core reports for one data arrival.
struct RxOutcome {
    Seq delivered = 0;      // in-order deliveries unlocked by this arrival
    bool duplicate = false; // arrival did not carry new information
    /// BA-style duplicate re-ack: counted as a dup_ack, sent immediately,
    /// and the arrival contributes nothing else (early return).
    std::optional<proto::Ack> dup_ack;
    /// Mandatory per-arrival acknowledgment (selective repeat, ABP);
    /// bypasses the ack policy.
    std::optional<proto::Ack> immediate_ack;
    /// Fast-retransmit request the receiver wants on the ack channel.
    std::optional<proto::Nak> nak;
    /// Arrival was syntactically valid but semantically impossible (e.g.
    /// a sequence number beyond nr + w that no conforming sender could
    /// have emitted).  A CRC-valid-but-corrupted frame lands here; the
    /// runtime counts it as a decode error and otherwise treats it as
    /// loss instead of crashing on a receiver precondition.
    bool rejected = false;
};

// clang-format off
/// The protocol surface a runtime drives.  All sequence numbers crossing
/// this boundary are TRUE (unbounded) values; cores map to wire residues
/// internally.  Optional extensions a runtime detects per core (see the
/// kCore* traits below):
///
///   send_blocked_until(tx)       time gate on new sends (send horizon,
///                                residue quarantine); the runtime sleeps
///                                until the returned instant
///   timeout_eligible(seq, bool)  SIV resend gate (realistic) and the
///                                receiver-oracle conjunct (oracle mode)
///   on_nak(nak, tx)              sender-side NAK fast retransmit
///   sender_core()/receiver_core() expose the underlying pure cores
///
/// resend_candidates(out) and simple_timeout_set(out) APPEND into a
/// caller-owned vector instead of returning one: the runtimes call them
/// on every ack / timeout, and the append style lets a runtime reuse one
/// scratch vector for the whole session instead of allocating per call.
template <typename C>
concept EndpointCore =
    requires(C core, const C& ccore, proto::Data data, proto::Ack ack,
             TxView tx, SimTime t, Seq seq, std::vector<Seq>& seqs) {
        typename C::Options;
        { C::kRequiresFifo } -> std::convertible_to<bool>;
        { C::kDefaultTimeoutMode } -> std::convertible_to<TimeoutMode>;
        { ccore.can_send_new() } -> std::convertible_to<bool>;
        { core.send_new(t) } -> std::same_as<proto::Data>;
        { core.on_ack(ack, tx) };
        { ccore.has_outstanding() } -> std::convertible_to<bool>;
        { core.on_data(data, t) } -> std::same_as<RxOutcome>;
        { ccore.ack_pending() } -> std::convertible_to<Seq>;
        { core.make_ack() } -> std::same_as<proto::Ack>;
        { ccore.resend_candidates(seqs) } -> std::same_as<void>;
        { ccore.can_resend(seq) } -> std::convertible_to<bool>;
        { core.resend(seq, t) } -> std::same_as<proto::Data>;
        { ccore.simple_timeout_set(seqs) } -> std::same_as<void>;
    };
// clang-format on

/// Optional-extension detection, shared by both runtimes so the same
/// core exercises the same policies over virtual and wall-clock time.
template <typename C>
inline constexpr bool kCoreTimeGatedSend =
    requires(C& c, const TxView& tx) {
        { c.send_blocked_until(tx) } -> std::convertible_to<SimTime>;
    };

template <typename C>
inline constexpr bool kCoreGatedResend =
    requires(const C& c, Seq s) { { c.timeout_eligible(s, true) } -> std::convertible_to<bool>; };

template <typename C>
inline constexpr bool kCoreHandlesNak =
    requires(C& c, const proto::Nak& n, const TxView& tx) {
        { c.on_nak(n, tx) } -> std::same_as<std::optional<Seq>>;
    };

/// Chaos hook (src/chaos): the core can apply one seeded perturbation
/// drawn from its reachable-but-wrong state space -- forgotten acks, a
/// regressed cumulative pointer, cleared cache bits.  Returns a short
/// human-readable description of what was corrupted, or "" when the
/// current state offers nothing to corrupt.  Implementations must keep
/// the state *internally* consistent (no broken representation
/// invariants) while making it *protocol*-inconsistent with the peer;
/// self-stabilization is measured from exactly such configurations.
template <typename C>
inline constexpr bool kCoreCorruptible = requires(C& c, Rng& rng) {
    { c.corrupt_state(rng) } -> std::convertible_to<std::string>;
};

/// Last-transmission log: the bookkeeping every runtime keeps so cores
/// can evaluate time-based rules.  matured() is the realistic
/// per-message expiry test ("the last copy was sent a full timeout
/// ago"); view() packages the log for the core-facing TxView.
class TxLog {
public:
    void note(Seq true_seq, SimTime now, Seq floor) { last_tx_.set(true_seq, now, floor); }
    void reserve(std::size_t span) { last_tx_.reserve(span); }

    bool matured(Seq true_seq, SimTime now, SimTime timeout) const {
        const SimTime t = last_tx_.get(true_seq);
        return t != kNever && now - t >= timeout;
    }

    TxView view(SimTime now, SimTime data_lifetime) const {
        return {now, data_lifetime, &last_tx_};
    }

private:
    SeqTimeTable last_tx_;
};

}  // namespace bacp::runtime
