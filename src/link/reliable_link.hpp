#pragma once

/// \file reliable_link.hpp
/// ReliableLink: the library's user-facing reliability layer.
///
/// A ReliableLink accepts arbitrary byte payloads and delivers them to the
/// far side *in order, exactly once*, over unreliable channels that may
/// lose, reorder, and corrupt frames.  Internally it runs the paper's
/// fully bounded protocol (SV): sequence numbers travel as residues mod
/// n = 2w (one varint byte for windows up to 64), block acknowledgments
/// cover whole runs, per-message conservative timers recover losses, and
/// the CRC-32C frame codec turns corruption into loss -- the only failure
/// mode the protocol's proof needs to handle.  It is a SimLink (the
/// shared driver on the simulator port) over two private ByteChannels,
/// and its whole observer surface (queued, sent_count, delivered_count,
/// idle, retransmissions, ...) is SimLink's.
///
/// Usage sketch (see examples/quickstart.cpp):
///
///   sim::Simulator sim;
///   link::ReliableLink link(sim, {.w = 16, .loss = 0.05});
///   link.set_on_deliver([](std::span<const std::uint8_t> p) { ... });
///   link.send({'h','i'});
///   sim.run();

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "link/byte_channel.hpp"
#include "link/sim_link.hpp"
#include "runtime/ack_policy.hpp"
#include "sim/simulator.hpp"

namespace bacp::link {

/// The private channel pair is the first base, so it is built before the
/// SimLink base that sends on it.
class ReliableLink : private ChannelPair, public SimLink {
public:
    struct Config {
        Seq w = 16;                       // window size; wire domain is 2w
        double loss = 0.0;                // per-direction frame loss probability
        double corrupt_p = 0.0;           // per-frame bit-flip probability
        SimTime delay_lo = 4 * kMillisecond;
        SimTime delay_hi = 6 * kMillisecond;
        SimTime timeout = 0;              // 0 = conservative derivation
        runtime::AckPolicy ack_policy = runtime::AckPolicy::eager();
        std::uint64_t seed = 1;
        /// Fast-retransmit extension: NAK the message blocking delivery
        /// once its loss is proved (see DESIGN.md).
        bool enable_nak = false;
    };

    /// \p options reach the protocol core (its test-only negative-control
    /// knobs live there).
    ReliableLink(sim::Simulator& sim, Config config, LinkCore::Options options = {});

    const ByteChannelStats& data_stats() const { return forward.stats(); }
    const ByteChannelStats& ack_stats() const { return reverse.stats(); }
};

}  // namespace bacp::link
