#pragma once

#include <cstdint>

#include "instruments.hpp"
#include "sim/metrics.hpp"

namespace perfbench {

// Each workload builds its system from public APIs only, runs set-up and
// warm-up (timed as setup_s), measures the timed window, drains, checks
// delivery, and returns one Result.  With Args::setup_only it returns
// right after set-up.
Result run_bulk(const Args& args);
Result run_duplex_lossy(const Args& args);
Result run_fleet(const Args& args);
Result run_des(const Args& args);

/// Payload key of message \p seq under \p seed: every workload fills and
/// verifies payloads with net::pattern_fill(payload_key(seed, seq)), so
/// the payload bytes depend on the seed as well as the sequence number.
inline Seq payload_key(std::uint64_t seed, Seq seq) { return (seed << 40) ^ seq; }

/// The protocol counters the driver.* rows are computed from.
struct DriverCounts {
    double data_new = 0;
    double data_retx = 0;
    double duplicates = 0;
    double delivered = 0;
    double acks_sent = 0;
    double naks_sent = 0;
    double decode_errors = 0;
    double crc_errors = 0;
    double piggybacked = 0;
    double standalone_acks = 0;

    void add(const bacp::sim::Metrics& m) {
        data_new += static_cast<double>(m.data_new);
        data_retx += static_cast<double>(m.data_retx);
        duplicates += static_cast<double>(m.duplicates);
        delivered += static_cast<double>(m.delivered);
        acks_sent += static_cast<double>(m.acks_sent);
        naks_sent += static_cast<double>(m.naks_sent);
        decode_errors += static_cast<double>(m.decode_errors);
        crc_errors += static_cast<double>(m.crc_errors);
    }
};

/// driver.* rows from counters at the window's start and end, per
/// message delivered in the window.
void add_driver_layers(Result& r, const DriverCounts& start, const DriverCounts& end,
                       double msgs);

}  // namespace perfbench
