#pragma once

/// \file horizon.hpp
/// Send-horizon rule, applied by the block-ack core (ba::EngineCore) in
/// every runtime.
///
/// When an acknowledgment covers a message i whose last copy may still be
/// in transit (last_tx(i) + L_SR > now), advancing the window past i + w
/// would let the receiver's nr outrun the in-flight copy by more than w,
/// and under bounded (mod 2w) sequence numbers the late copy would alias
/// into a *future* sequence number at the receiver.  Capping ns <= i + w
/// until the copy has provably aged out preserves invariant 11
/// (v < nr + w) for every arrival: the per-message analogue of TCP's
/// quiet-time rule.  On a real-time path every ack that beats L arms a
/// cap, first transmissions included, so each cap expires on its own: a
/// paced stream whose message i + w leaves after last_tx(i) + L never
/// waits, and a closed loop waits at w messages per L.
///
/// Only the cap of message ns - w can hold the next send back: with
/// ns <= na + w, every older i was acked before i + w was sent and was
/// checked then, and last_tx(i) cannot change after its ack.  So the cap
/// is read from the transmission log at send time.  Only a hole-reusing
/// sender (ns - na may exceed w) can see i acked after i + w has left;
/// that cap holds back every future send, so it raises one shared instant.

#include <algorithm>

#include "common/types.hpp"
#include "runtime/endpoint_core.hpp"

namespace bacp::runtime {

class SendHorizon {
public:
    /// \p w: the receiver's window.
    explicit SendHorizon(Seq w) : w_(w) {}

    /// Records the ack of message \p true_seq, arriving while \p ns is
    /// the true sequence number of the next new message.
    void note_ack(Seq true_seq, Seq ns, const TxView& tx) {
        if (ns <= true_seq + w_) return;  // the send of true_seq + w reads its cap
        const auto last = tx.last_tx_time(true_seq);
        if (!last) return;
        every_send_until_ = std::max(every_send_until_, *last + tx.data_lifetime);
    }

    /// Instant before which message \p ns may not be sent (at or before
    /// tx.now: send now).  \p cap_acked: message ns - w is acknowledged,
    /// which ns < na + w implies.
    SimTime blocked_until(Seq ns, bool cap_acked, const TxView& tx) const {
        if (ns < w_ || !cap_acked) return every_send_until_;
        const auto last = tx.last_tx_time(ns - w_);
        return last ? std::max(every_send_until_, *last + tx.data_lifetime) : every_send_until_;
    }

private:
    Seq w_;
    SimTime every_send_until_ = 0;  // no new message leaves before this
};

}  // namespace bacp::runtime
