#pragma once

/// \file metrics.hpp
/// Unified transport-layer counters for the real-time runtime.
///
/// One struct covers both families of counters that used to live apart
/// (TransportStats on Transport, ImpairStats on Impairer): datagram and
/// byte totals, batch-syscall counts, and the impairment decisions.  A
/// plain transport leaves the impairment block at zero; an Impairer
/// fills both.  Keeping them in one struct means every consumer -- the
/// NetReport, bench JSON emitters, tests -- sees the same field list,
/// and fields() gives serializers a name->value view so no bench ever
/// hand-copies counter names again (bench/json_out.hpp consumes it via
/// counters_json()).
///
/// syscalls_sent / syscalls_received count *batch boundary crossings*:
/// real sendmmsg(2)/recvmmsg(2) invocations on UdpTransport, one per
/// send_batch/recv_batch call on InprocTransport (whose "syscall" is a
/// mutex-guarded queue sweep).  datagrams_sent / syscalls_sent is the
/// amortization the batch API exists to buy; E19/E21 report it.

#include <array>
#include <cstdint>
#include <string>

#include "common/metrics_table.hpp"

namespace bacp::net {

struct Metrics {
    // ---- transport counters (every Transport) -------------------------
    std::uint64_t datagrams_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t bytes_received = 0;
    /// Datagrams the transport itself had to drop on send (full socket
    /// buffer / full queue), including the tail of a partial batch.
    /// Indistinguishable from channel loss to the protocol, which is
    /// exactly how it recovers.
    std::uint64_t send_drops = 0;
    /// Batch boundary crossings: sendmmsg/recvmmsg invocations on UDP,
    /// queue sweeps on the in-process pair.
    std::uint64_t syscalls_sent = 0;
    std::uint64_t syscalls_received = 0;

    // ---- kernel-offload counters (zero on the mmsg tier) --------------
    /// UDP_SEGMENT super-buffers sent (mmsghdr entries carrying a GSO
    /// cmsg) and the datagrams they covered: gso_segments /
    /// gso_sends is the kernel-side splitting factor.
    std::uint64_t gso_sends = 0;
    std::uint64_t gso_segments = 0;
    /// UDP_GRO coalesced buffers received and the datagrams recv_batch
    /// split back out of them.
    std::uint64_t gro_recvs = 0;
    std::uint64_t gro_segments = 0;

    // ---- timer-wheel counters (folded in by NetEngine/Server) --------
    /// fire_due() calls that fired at least one timer, and the total
    /// timers fired: timers_fired / timer_fire_batches is how well the
    /// deadline math batches expiry work per loop wakeup.
    std::uint64_t timer_fire_batches = 0;
    std::uint64_t timers_fired = 0;

    // ---- impairment counters (zero on plain transports) ---------------
    std::uint64_t offered = 0;     // datagrams handed to the impairer
    std::uint64_t dropped = 0;     // silently lost
    std::uint64_t duplicated = 0;  // extra copies created
    std::uint64_t reordered = 0;   // copies given the reorder delay
    std::uint64_t delayed = 0;     // copies parked on the timer wheel
    std::uint64_t corrupted = 0;   // copies with a byte flipped in flight
    /// The subset of `corrupted` whose CRC trailer was re-sealed after
    /// the flip: the codec accepts the frame and the corruption must be
    /// caught (or absorbed) semantically.  The remainder keep the stale
    /// trailer and are rejected as BadCrc -- ordinary loss.
    std::uint64_t corrupted_sealed = 0;

    double datagrams_per_send_syscall() const {
        return syscalls_sent > 0
                   ? static_cast<double>(datagrams_sent) / static_cast<double>(syscalls_sent)
                   : 0.0;
    }
    double datagrams_per_recv_syscall() const {
        return syscalls_received > 0 ? static_cast<double>(datagrams_received) /
                                           static_cast<double>(syscalls_received)
                                     : 0.0;
    }

    using Field = MetricsField;
    static constexpr std::size_t kFieldCount = 20;

    /// The counter table: single source of truth for fields(),
    /// to_json(), and operator+= (every row merges by summation).
    static constexpr std::array<CounterDef<Metrics>, kFieldCount> kCounters = {{
        {"datagrams_sent", &Metrics::datagrams_sent},
        {"bytes_sent", &Metrics::bytes_sent},
        {"datagrams_received", &Metrics::datagrams_received},
        {"bytes_received", &Metrics::bytes_received},
        {"send_drops", &Metrics::send_drops},
        {"syscalls_sent", &Metrics::syscalls_sent},
        {"syscalls_received", &Metrics::syscalls_received},
        {"gso_sends", &Metrics::gso_sends},
        {"gso_segments", &Metrics::gso_segments},
        {"gro_recvs", &Metrics::gro_recvs},
        {"gro_segments", &Metrics::gro_segments},
        {"timer_fire_batches", &Metrics::timer_fire_batches},
        {"timers_fired", &Metrics::timers_fired},
        {"offered", &Metrics::offered},
        {"dropped", &Metrics::dropped},
        {"duplicated", &Metrics::duplicated},
        {"reordered", &Metrics::reordered},
        {"delayed", &Metrics::delayed},
        {"corrupted", &Metrics::corrupted},
        {"corrupted_sealed", &Metrics::corrupted_sealed},
    }};

    Metrics& operator+=(const Metrics& o) {
        add_counters(*this, o, kCounters);
        return *this;
    }

    /// Stable name->value view of every counter, in declaration order.
    /// bench::counters_json() walks it.
    std::array<Field, kFieldCount> fields() const { return counter_fields(*this, kCounters); }

    /// Flat JSON object of every counter.
    std::string to_json() const { return fields_json(fields()); }
};

}  // namespace bacp::net
