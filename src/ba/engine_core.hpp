#pragma once

/// \file engine_core.hpp
/// EndpointCore adapter for the block-acknowledgment protocol family.
///
/// EngineCore<SenderT, ReceiverT> packages any of the three sender cores
/// (Sender, BoundedSender, HoleReuseSender) with either receiver behind
/// the runtime::Engine concept.  Bounded cores speak residues on the
/// wire; this adapter keeps *ghost* unbounded counters (never visible to
/// the cores) and translates between the engine's true sequence numbers
/// and wire fields, mirroring the paper's proof technique of reasoning
/// about true values that the implementation no longer stores.
///
/// Besides the translation, the adapter owns the BA-specific protocol
/// policies that are not transport concerns:
///   - SACK-style ack clipping (ack_clip.hpp) before the strict core;
///   - the send-horizon rule (horizon.hpp);
///   - the SIV resend gate and the receiver-oracle conjunct
///     (timeout_eligible);
///   - the NAK fast-retransmit extension;
///   - the AIMD variable-window extension (paper SVI).

#include <algorithm>
#include <concepts>
#include <optional>
#include <string>
#include <vector>

#include "ba/bounded_receiver.hpp"
#include "ba/bounded_sender.hpp"
#include "ba/hole_reuse_sender.hpp"
#include "ba/receiver.hpp"
#include "ba/sender.hpp"
#include "common/types.hpp"
#include "protocol/message.hpp"
#include "protocol/seqnum.hpp"
#include "runtime/ack_clip.hpp"
#include "runtime/engine.hpp"
#include "runtime/horizon.hpp"

namespace bacp::ba {

template <typename SenderT, typename ReceiverT>
class EngineCore {
public:
    struct Options {
        /// NEGATIVE CONTROLS -- test-suite only.  Each drops one safety
        /// rule of PROTOCOL.md SS6 from the rule every runtime runs, so a
        /// test can show the failure the rule exists to prevent (DESIGN.md
        /// SS5); never set them in real use.
        bool unsafe_disable_horizon = false;  // send_blocked_until never blocks
        bool unsafe_ungated_resend = false;   // any matured message may be resent
    };

    static constexpr bool kRequiresFifo = false;
    static constexpr runtime::TimeoutMode kDefaultTimeoutMode =
        runtime::TimeoutMode::PerMessageTimer;
    static constexpr bool kInvariantCheckable =
        std::same_as<SenderT, Sender> && std::same_as<ReceiverT, Receiver>;
    // A block ack covers exactly the contiguous run below vr: everything
    // inside a (correctly computed) range was delivered, so a stale copy
    // of an earlier range is harmless.  The chaos harness keys its
    // plausible-ack mutation flavor on this.
    static constexpr bool kCumulativeAcks = true;

    explicit EngineCore(const runtime::EngineConfig& cfg, Options options = {})
        : options_(options),
          w_(cfg.w),
          sender_(cfg.w),
          receiver_(cfg.w),
          horizon_(cfg.w),
          adaptive_(cfg.adaptive_window),
          nak_enabled_(cfg.enable_nak),
          data_lifetime_(cfg.data_link.max_lifetime()),
          nak_interval_(cfg.data_link.max_lifetime() + cfg.ack_link.max_lifetime()) {
        if (nak_enabled_) first_above_.resize(static_cast<std::size_t>(cfg.w));
        // Clipping one ack yields at most ceil(w/2) disjoint runs
        // (covered/uncovered must alternate); reserving now keeps the
        // worst-case ack off the allocator mid-run.
        runs_scratch_.reserve(static_cast<std::size_t>(cfg.w) / 2 + 1);
    }

    const SenderT& sender_core() const { return sender_; }
    const ReceiverT& receiver_core() const { return receiver_; }

    // ---- sender half -----------------------------------------------------

    bool can_send_new() const { return sender_.can_send_new(); }

    SimTime send_blocked_until(const runtime::TxView& tx) const {
        if (options_.unsafe_disable_horizon) return tx.now;
        return std::max(tx.now, horizon_.blocked_until(ghost_ns_, cap_acked(), tx));
    }

    proto::Data send_new(SimTime) {
        const proto::Data msg = sender_.send_new();
        ++ghost_ns_;
        return msg;
    }

    /// Feeds one block ack to the core, tolerating duplicate coverage.
    ///
    /// With realistic per-message timers (SIV) the sender cannot evaluate
    /// the "(i < nr || !rcvd[i])" conjunct of timeout(i), so it may
    /// resend a message the receiver buffered out of order; the resulting
    /// duplicate acknowledgments can overlap ranges the sender already
    /// processed.  Exactly as a TCP SACK processor does, the adapter
    /// clips the incoming range to the still-unacknowledged runs before
    /// handing it to the strict core.  Under the oracle modes and the SII
    /// single timer no clipping ever occurs (the paper's assertion 8
    /// holds) -- the invariant checker enforces that in tests.
    void on_ack(const proto::Ack& ack, const runtime::TxView& tx) {
        runs_scratch_.clear();
        if constexpr (kBoundedSender) {
            runtime::clip_ack_bounded_into(sender_, ack, runs_scratch_);
        } else {
            runtime::clip_ack_unbounded_into(sender_, ack, runs_scratch_);
        }
        for (const auto& run : runs_scratch_) {
            if constexpr (kBoundedSender) {
                const Seq na_before = sender_.na_mod();
                const Seq lo_true =
                    ghost_na_ + proto::mod_offset(na_before, run.lo, sender_.domain());
                const Seq hi_true =
                    ghost_na_ + proto::mod_offset(na_before, run.hi, sender_.domain());
                for (Seq t = lo_true; t <= hi_true; ++t) horizon_.note_ack(t, ghost_ns_, tx);
                sender_.on_ack(run);
                const Seq advance =
                    proto::mod_offset(na_before, sender_.na_mod(), sender_.domain());
                ghost_na_ += advance;
                window_on_ack_progress(advance);
            } else {
                for (Seq t = run.lo; t <= run.hi; ++t) horizon_.note_ack(t, ghost_ns_, tx);
                const Seq na_before = sender_.na();
                sender_.on_ack(run);
                window_on_ack_progress(sender_.na() - na_before);
            }
        }
    }

    bool has_outstanding() const {
        if constexpr (requires(const SenderT& s) { s.unacked(); }) {
            return sender_.unacked() > 0;
        } else {
            return sender_.outstanding() > 0;
        }
    }

    void resend_candidates(std::vector<Seq>& out) const {
        // Append the wire fields, then translate them to true sequence
        // numbers in place -- no intermediate vector.
        const std::size_t base = out.size();
        sender_.resend_candidates(out);
        for (std::size_t k = base; k < out.size(); ++k) out[k] = true_of(out[k]);
    }

    bool can_resend(Seq true_seq) const {
        if (true_seq < ghost_na()) return false;  // acknowledged meanwhile
        return sender_.can_resend(wire_of(true_seq));
    }

    proto::Data resend(Seq true_seq, SimTime) {
        window_on_loss(true_seq);
        return sender_.resend(wire_of(true_seq));
    }

    /// Lowest unacknowledged message -- what the SII single timer and the
    /// OracleSimple guard resend (ackd[na] is false by invariant 7, so na
    /// is always resendable).
    void simple_timeout_set(std::vector<Seq>& out) const { out.push_back(ghost_na()); }

    /// Realistic SIV resend gate (oracle == false).  The sender may
    /// resend a matured message i only when it can prove the receiver is
    /// not holding i buffered beyond nr (the "(i < nr || !rcvd[i])"
    /// conjunct of timeout(i), which it cannot observe directly):
    ///
    ///   - i == na: if the receiver had na buffered at nr == na it would
    ///     have acknowledged within the ack-delay bound, and that ack
    ///     would have arrived inside the conservative timeout;
    ///   - an ack hole above i exists: in-order acking means the receiver
    ///     accepted i (i < nr) and only the ack was lost.
    ///
    /// This gate is what keeps every in-transit data copy m
    /// unacknowledged at the sender (assertion 8), which pins na <= m and
    /// hence nr <= m + w -- without it a stale copy can outlive the SV
    /// residue reconstruction window and alias into a future sequence
    /// number.
    ///
    /// With oracle == true, evaluates timeout(i)'s receiver conjunct
    /// directly: eligible unless the receiver holds i buffered beyond nr
    /// and will acknowledge it without help.
    bool timeout_eligible(Seq true_seq, bool oracle) const {
        const Seq field = wire_of(true_seq);
        if (oracle) return !receiver_can_still_ack(field);
        if (options_.unsafe_ungated_resend) return true;
        return true_seq == ghost_na() || sender_.acked_beyond(field);
    }

    /// Sender side of the NAK extension: a NAK names a message the
    /// receiver lacks and whose first copy it has proved lost (see
    /// maybe_make_nak) -- the "(i < nr || !rcvd[i])" oracle conjunct,
    /// receiver-supplied.  A later copy may still be in transit, so the
    /// one-copy rule remains: the previous copy must have aged out of the
    /// data channel.
    std::optional<Seq> on_nak(const proto::Nak& nak, const runtime::TxView& tx) const {
        Seq true_seq;
        if constexpr (kBoundedSender) {
            if (nak.seq >= sender_.domain()) return std::nullopt;  // malformed
            const Seq off = proto::mod_offset(sender_.na_mod(), nak.seq, sender_.domain());
            if (off >= sender_.outstanding()) return std::nullopt;  // stale NAK
            true_seq = ghost_na_ + off;
        } else {
            true_seq = nak.seq;
        }
        if (!can_resend(true_seq)) return std::nullopt;
        const auto last = tx.last_tx_time(true_seq);
        if (!last) return std::nullopt;
        if (tx.now - *last < data_lifetime_) return std::nullopt;  // copy may live
        return true_seq;
    }

    // ---- receiver half ---------------------------------------------------

    runtime::RxOutcome on_data(const proto::Data& msg, SimTime now) {
        runtime::RxOutcome out;
        // Harden the receive-window precondition (invariant 8/11) into a
        // rejection: the CRC authenticates bytes, not semantics, so a
        // corrupted-below-CRC or hostile frame can still carry a sequence
        // number no conforming sender could have emitted.  The pure
        // receiver's precondition assert must stay unreachable from wire
        // input.
        if constexpr (kBoundedReceiver) {
            if (msg.seq >= receiver_.domain()) {
                out.rejected = true;
                return out;
            }
        } else {
            if (msg.seq >= receiver_.nr() + receiver_.window()) {
                out.rejected = true;
                return out;
            }
        }
        const auto dup = receiver_.on_data(msg);
        if (dup) {
            out.duplicate = true;
            out.dup_ack = *dup;
            return out;
        }
        if (nak_enabled_) note_arrival(msg.seq, now);
        // Action 4, repeated: deliver the contiguous run in order.
        while (receiver_.can_advance()) {
            receiver_.advance();
            ++ghost_vr_;
            ++out.delivered;
        }
        out.nak = maybe_make_nak(now);
        return out;
    }

    Seq ack_pending() const {
        if constexpr (kBoundedReceiver) {
            return receiver_.pending();
        } else {
            return receiver_.vr() - receiver_.nr();
        }
    }

    proto::Ack make_ack() { return receiver_.make_ack(); }

    // ---- chaos hook (runtime::kCoreCorruptible, src/chaos) -----------------

    /// Applies one seeded perturbation from the reachable-but-wrong state
    /// space: a forgotten ack scoreboard (na regression), a flipped ackd
    /// bit, a forgotten receiver stash entry, or a regressed nr.  Forward
    /// corruption (na beyond the acked prefix, rcvd bits for unsent
    /// seqs, vr regression) is deliberately excluded -- those states are
    /// unreachable by *any* crash-and-lose-memory fault and would break
    /// exactly-once delivery rather than test recovery; the crash story
    /// for truly arbitrary state is the epoch rejoin (PROTOCOL.md §8).
    /// Unbounded cores only: residue cores recover by epoch, not repair.
    std::string corrupt_state(Rng& rng)
        requires kInvariantCheckable
    {
        // Start at a random class and take the first whose guard holds,
        // so mid-run states get variety while a drained endpoint still
        // yields something when it can.
        const std::uint64_t first = rng.uniform(4);
        for (std::uint64_t k = 0; k < 4; ++k) {
            switch ((first + k) % 4) {
                case 0: {  // sender forgets its ack scoreboard
                    const Seq ns = sender_.ns();
                    const Seq floor = ns >= w_ ? ns - w_ : 0;
                    const Seq old_na = sender_.na();
                    if (old_na <= floor) break;
                    const Seq new_na = floor + rng.uniform(old_na - floor);
                    sender_.chaos_forget_acks(new_na);
                    return "sender forgot acks: na " + std::to_string(old_na) + " -> " +
                           std::to_string(new_na);
                }
                case 1: {  // one ackd bit flips off
                    const Seq na = sender_.na();
                    const Seq ns = sender_.ns();
                    Seq count = 0;
                    for (Seq i = na; i < ns; ++i) count += sender_.ackd(i) ? 1 : 0;
                    if (count == 0) break;
                    Seq pick = rng.uniform(count);
                    for (Seq i = na; i < ns; ++i) {
                        if (!sender_.ackd(i)) continue;
                        if (pick == 0) {
                            sender_.chaos_clear_ackd(i);
                            return "sender ackd[" + std::to_string(i) + "] flipped off";
                        }
                        --pick;
                    }
                    break;
                }
                case 2: {  // receiver forgets a buffered out-of-order message
                    // Forgettable only while the sender still holds it
                    // unacked (a stash entry can be singleton-acked by a
                    // duplicate arrival): once acked, the sender provably
                    // never resends, so losing the copy is unrecoverable
                    // by repair -- that fault belongs to the epoch rejoin.
                    const auto forgettable = [this](Seq i) {
                        return receiver_.rcvd(i) && i >= sender_.na() &&
                               i < sender_.ns() && !sender_.ackd(i);
                    };
                    const Seq vr = receiver_.vr();
                    Seq count = 0;
                    for (Seq i = vr + 1; i < vr + w_; ++i) count += forgettable(i) ? 1 : 0;
                    if (count == 0) break;
                    Seq pick = rng.uniform(count);
                    for (Seq i = vr + 1; i < vr + w_; ++i) {
                        if (!forgettable(i)) continue;
                        if (pick == 0) {
                            receiver_.chaos_clear_rcvd(i);
                            return "receiver rcvd[" + std::to_string(i) + "] flipped off";
                        }
                        --pick;
                    }
                    break;
                }
                case 3: {  // receiver's in-order pointer regresses
                    const Seq old_nr = receiver_.nr();
                    const Seq floor = old_nr >= w_ ? old_nr - w_ : 0;
                    if (old_nr <= floor) break;
                    const Seq new_nr = floor + rng.uniform(old_nr - floor);
                    receiver_.chaos_regress_nr(new_nr);
                    return "receiver nr " + std::to_string(old_nr) + " -> " +
                           std::to_string(new_nr);
                }
            }
        }
        return "";
    }

    /// Wire residue the message with true sequence number \p true_seq
    /// travels under.  Bounded senders only -- unbounded cores put the
    /// true value on the wire, and environments detect the distinction
    /// through runtime::kCoreWireMapped.
    Seq wire_seq(Seq true_seq) const
        requires requires(const SenderT& s) { s.na_mod(); }
    {
        return wire_of(true_seq);
    }

    /// Residue domain the receiver's ack blocks live in.  Bounded
    /// receivers only: a block ack (lo, hi) is a residue range mod this
    /// domain and may *wrap* it (hi < lo numerically, e.g. (7, 2) in
    /// domain 8).  In-process handoff passes the struct through
    /// unchanged, but wire environments must split a wrapped block into
    /// two frames before encoding (runtime::kCoreAckWireWrapped).
    Seq ack_wire_domain() const
        requires requires(const ReceiverT& r) { r.nr_mod(); }
    {
        return receiver_.domain();
    }

private:
    static constexpr bool kBoundedSender = requires(const SenderT& s) { s.na_mod(); };
    static constexpr bool kBoundedReceiver = requires(const ReceiverT& r) { r.nr_mod(); };

    /// Ghost (true, unbounded) value of na.
    Seq ghost_na() const {
        if constexpr (kBoundedSender) {
            return ghost_na_;
        } else {
            return sender_.na();
        }
    }

    /// Wire field for the message with true sequence number \p true_seq.
    Seq wire_of(Seq true_seq) const {
        if constexpr (kBoundedSender) {
            return true_seq % sender_.domain();
        } else {
            return true_seq;
        }
    }

    /// True sequence number of a resend-candidate wire field.
    Seq true_of(Seq field) const {
        if constexpr (kBoundedSender) {
            return ghost_na_ + proto::mod_offset(sender_.na_mod(), field, sender_.domain());
        } else {
            return field;
        }
    }

    /// Whether message ns - w, whose cap gates the next send, is acked.
    /// Implied by the window for every sender but the hole-reusing one.
    bool cap_acked() const {
        if constexpr (std::same_as<SenderT, HoleReuseSender>) {
            const Seq i = ghost_ns_ - w_;
            return i < sender_.na() || (i < sender_.ns() && sender_.ackd(i));
        } else {
            return true;
        }
    }

    /// Oracle evaluation of timeout(i)'s receiver conjunct: returns the
    /// NEGATION of "(i < nr || !rcvd[i])", i.e. true when the receiver
    /// holds i buffered beyond nr and will acknowledge it without help.
    bool receiver_can_still_ack(Seq field) const {
        if constexpr (kBoundedReceiver) {
            if (proto::wire_before_nr(field, receiver_.nr_mod(), receiver_.window())) {
                return false;  // i < nr: accepted; resend is the recovery path
            }
            return receiver_.rcvd(field);
        } else {
            return field < receiver_.nr() ? false : receiver_.rcvd(field);
        }
    }

    /// Receiver side of the NAK extension, bookkeeping: the arrival with
    /// wire field \p field stamps every position in [vr, its true seq)
    /// that no higher message had reached yet with \p now.  Each position
    /// is stamped once, so the loop is amortized O(1) per arrival.
    void note_arrival(Seq field, SimTime now) {
        Seq seq = field;
        if constexpr (kBoundedReceiver) {
            const Seq off = proto::mod_offset(receiver_.vr_mod(), field, receiver_.domain());
            if (off >= w_) return;  // below vr
            seq = ghost_vr_ + off;
        }
        for (Seq p = std::max(nak_top_, ghost_vr_); p < seq; ++p) first_above_[p % w_] = now;
        nak_top_ = std::max(nak_top_, seq);
    }

    /// Receiver side of the NAK extension: request the message blocking
    /// vr once its loss is proved.  First transmissions leave in sequence
    /// order, so once a higher message has been held for the data
    /// lifetime L, vr's first copy has aged out of the channel
    /// (rate-limited to one NAK per blocked position per NAK round trip).
    std::optional<proto::Nak> maybe_make_nak(SimTime now) {
        if (!nak_enabled_ || ghost_vr_ >= nak_top_) return std::nullopt;  // no hole at vr
        if (now - first_above_[ghost_vr_ % w_] < data_lifetime_) return std::nullopt;
        const Seq missing_field = [&] {
            if constexpr (kBoundedReceiver) {
                return receiver_.vr_mod();
            } else {
                return receiver_.vr();
            }
        }();
        if (last_nak_field_ == missing_field && now - last_nak_time_ < nak_interval_) {
            return std::nullopt;
        }
        last_nak_field_ = missing_field;
        last_nak_time_ = now;
        return proto::Nak{missing_field};
    }

    /// Multiplicative decrease, once per loss event: a retransmission of
    /// a message sent before the previous decrease does not halve again.
    void window_on_loss(Seq true_seq) {
        if constexpr (requires(SenderT& s) { s.set_window_limit(Seq{1}); }) {
            if (!adaptive_) return;
            if (true_seq < recovery_mark_) return;  // same loss event
            recovery_mark_ = ghost_ns_;
            const Seq halved = std::max<Seq>(1, sender_.window_limit() / 2);
            sender_.set_window_limit(halved);
            acked_since_increase_ = 0;
        }
    }

    /// Additive increase: +1 after a full effective window is acked.
    void window_on_ack_progress(Seq advance) {
        if constexpr (requires(SenderT& s) { s.set_window_limit(Seq{1}); }) {
            if (!adaptive_ || advance == 0) return;
            acked_since_increase_ += advance;
            if (acked_since_increase_ >= sender_.window_limit() &&
                sender_.window_limit() < w_) {
                sender_.set_window_limit(sender_.window_limit() + 1);
                acked_since_increase_ = 0;
            }
        }
    }

    Options options_;
    Seq w_;
    SenderT sender_;
    ReceiverT receiver_;
    runtime::SendHorizon horizon_;
    Seq ghost_ns_ = 0;  // true ns (== engine's sent_new counter)
    Seq ghost_na_ = 0;  // true na for bounded senders
    Seq ghost_vr_ = 0;  // true vr

    // Adaptive-window (AIMD) state.
    bool adaptive_;
    Seq recovery_mark_ = 0;  // loss events below this are "the same"
    Seq acked_since_increase_ = 0;

    // NAK extension state.
    bool nak_enabled_;
    SimTime data_lifetime_;
    SimTime nak_interval_;
    /// Per position p mod w in [vr, nak_top_): when a message above p
    /// first arrived.  Sized w only when NAKs are on.
    std::vector<SimTime> first_above_;
    Seq nak_top_ = 0;
    Seq last_nak_field_ = ~Seq{0};
    SimTime last_nak_time_ = 0;

    std::vector<proto::Ack> runs_scratch_;  // clip output, reused per ack
};

}  // namespace bacp::ba
