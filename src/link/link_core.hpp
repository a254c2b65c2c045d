#pragma once

/// \file link_core.hpp
/// What every link in src/link runs: the paper's fully bounded protocol
/// (SV, residues mod 2w on the wire) behind ba::EngineCore, and the
/// send-side payload store both link runtimes share -- the
/// discrete-event SimLink (ReliableLink, StreamMux, the multihop paths)
/// and the real-network NetReliableLink.

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "ba/bounded_receiver.hpp"
#include "ba/bounded_sender.hpp"
#include "ba/engine_core.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::link {

/// The fully bounded protocol, as every link runs it.
using LinkCore = ba::EngineCore<ba::BoundedSender, ba::BoundedReceiver>;

/// Payloads a link has accepted but the peer has not yet acknowledged.
///
/// Link sends are application-gated (EngineConfig::app_arrivals): send()
/// stores the bytes and releases one message into the endpoint's window,
/// and the endpoint's payload source serves any outstanding seq back --
/// retransmissions included.  Everything below the sending driver's
/// retired prefix (its ack cursor) is acknowledged and can never be
/// requested again, so it is dropped: the store holds at most the window
/// plus the application's queue, however long the link runs.
class PayloadStore {
public:
    /// Points \p endpoint's payload source at this store.
    template <typename Endpoint>
    void bind(Endpoint& endpoint) {
        endpoint.set_payload_source([this, &endpoint](Seq seq, std::vector<std::uint8_t>& out) {
            drop_acked(endpoint);
            BACP_ASSERT_MSG(seq >= base_ && seq < stored(), "payload requested but not held");
            const auto& bytes = payloads_[static_cast<std::size_t>(seq - base_)];
            out.assign(bytes.begin(), bytes.end());
        });
    }

    /// Stores one payload and releases it into \p endpoint's window
    /// (frames may egress from inside this call).
    template <typename Endpoint>
    void send(Endpoint& endpoint, std::vector<std::uint8_t> payload) {
        drop_acked(endpoint);
        payloads_.push_back(std::move(payload));
        endpoint.release(1);
    }

    /// Payloads currently held (unacknowledged or still queued).
    std::size_t held() const { return payloads_.size(); }
    /// Payloads ever stored (== the app-gated release count).
    Seq stored() const { return base_ + static_cast<Seq>(payloads_.size()); }

private:
    template <typename Endpoint>
    void drop_acked(const Endpoint& endpoint) {
        const Seq cursor = endpoint.tx_driver().ack_cursor();
        while (base_ < cursor && !payloads_.empty()) {
            payloads_.pop_front();
            ++base_;
        }
    }

    std::deque<std::vector<std::uint8_t>> payloads_;  // seqs base_ .. stored()-1
    Seq base_ = 0;
};

}  // namespace bacp::link
