#pragma once

/// \file metrics.hpp
/// Per-run measurement record shared by tests, benches, and examples.

#include <array>
#include <cstdint>
#include <string>

#include "common/histogram.hpp"
#include "common/metrics_table.hpp"
#include "common/types.hpp"

namespace bacp::sim {

struct Metrics {
    // Sender side.
    std::uint64_t data_new = 0;        // first transmissions (action 0)
    std::uint64_t data_retx = 0;       // retransmissions (action 2/2')
    std::uint64_t acks_received = 0;
    std::uint64_t send_gate_stalls = 0;  // pumps stopped by send_blocked_until

    // Receiver side.
    std::uint64_t data_received = 0;   // every arriving data message
    std::uint64_t duplicates = 0;      // arrivals with v < nr
    std::uint64_t acks_sent = 0;       // block acks (action 5)
    std::uint64_t dup_acks = 0;        // singleton re-acks from action 3
    std::uint64_t delivered = 0;       // messages accepted in order (nr growth)

    // NAK fast-retransmit extension.
    std::uint64_t naks_sent = 0;      // receiver-side NAK emissions
    std::uint64_t naks_received = 0;  // sender-side NAK arrivals
    std::uint64_t fast_retx = 0;      // retransmissions triggered by NAKs

    // Channel side.
    std::uint64_t sr_dropped = 0;
    std::uint64_t rs_dropped = 0;

    // Wire side (real-time runtime and codec-backed channels): frames
    // rejected by wire::decode.  A rejected frame is treated as lost --
    // crc_errors counts the BadCrc subset of decode_errors.
    std::uint64_t decode_errors = 0;
    std::uint64_t crc_errors = 0;

    // Wall-clock of the simulated run.
    SimTime start_time = 0;
    SimTime end_time = 0;

    /// Send-to-accept latency per message (first transmission to the
    /// moment nr passes it), in simulated nanoseconds.
    Histogram latency{5};

    /// Sender-observed ack latency per message (first transmission to
    /// the ack that retired it), in the sender's clock.  The receiver's
    /// `latency` needs both endpoints' tables in one driver (true in the
    /// DES); this one fills at any sending endpoint, so split-process
    /// runs (net clients against a Server) still get a latency figure.
    Histogram ack_latency{5};

    SimTime elapsed() const { return end_time - start_time; }

    /// Accepted messages per simulated second.
    double throughput_msgs_per_sec() const;

    /// Total acknowledgment messages per delivered data message (block +
    /// duplicate acks) -- the E4 overhead measure.
    double acks_per_delivered() const;

    /// Fraction of data transmissions that were retransmissions.
    double retx_fraction() const;

    /// One-line human-readable report.
    std::string summary() const;

    using Field = MetricsField;
    static constexpr std::size_t kFieldCount = 16;

    /// The counter table (common/metrics_table.hpp): time stamps and the
    /// latency histograms are not counters and stay out; consumers
    /// report those through their own fields.
    static constexpr std::array<CounterDef<Metrics>, kFieldCount> kCounters = {{
        {"data_new", &Metrics::data_new},
        {"data_retx", &Metrics::data_retx},
        {"acks_received", &Metrics::acks_received},
        {"send_gate_stalls", &Metrics::send_gate_stalls},
        {"data_received", &Metrics::data_received},
        {"duplicates", &Metrics::duplicates},
        {"acks_sent", &Metrics::acks_sent},
        {"dup_acks", &Metrics::dup_acks},
        {"delivered", &Metrics::delivered},
        {"naks_sent", &Metrics::naks_sent},
        {"naks_received", &Metrics::naks_received},
        {"fast_retx", &Metrics::fast_retx},
        {"sr_dropped", &Metrics::sr_dropped},
        {"rs_dropped", &Metrics::rs_dropped},
        {"decode_errors", &Metrics::decode_errors},
        {"crc_errors", &Metrics::crc_errors},
    }};

    /// Stable name->value view of every protocol counter, in declaration
    /// order -- the same shape net::Metrics exposes, so benches serialize
    /// identically from either runtime (bench::counters_json walks it).
    std::array<Field, kFieldCount> fields() const { return counter_fields(*this, kCounters); }

    /// Sum every tabled protocol counter of `o` into this record.  Times
    /// and histograms are left alone -- merge those by hand where the
    /// aggregation semantics are known (e.g. bench_e22 merges its
    /// clients' ack-latency histograms).
    void add_counters_from(const Metrics& o) { add_counters(*this, o, kCounters); }

    /// Flat JSON object of every counter.
    std::string to_json() const { return fields_json(fields()); }
};

}  // namespace bacp::sim
