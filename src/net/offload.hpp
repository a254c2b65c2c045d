#pragma once

/// \file offload.hpp
/// Kernel-offload capability detection and tier selection for
/// UdpTransport.
///
/// The batch API (sendmmsg/recvmmsg) amortizes the *syscall*; the next
/// constant factors live below it, and not every kernel has them.  This
/// header names the two-tier ladder:
///
///   Mmsg   sendmmsg/recvmmsg, one mmsghdr per datagram.  The portable
///          baseline every kernel since 3.0 supports; everything else
///          falls back to it.
///   Gso    send: equal-stride runs coalesced into UDP_SEGMENT
///          super-buffers the kernel (or NIC) splits -- one mmsghdr
///          moves up to 64 datagrams.  recv: UDP_GRO, the kernel hands
///          one coalesced buffer per burst and recv_batch splits it
///          back into the arena.
///
/// offload_caps() probes once per process (cheap setsockopt /
/// io_uring_setup attempts against throwaway descriptors) and caches.
/// resolve_offload() maps Auto to the best supported tier.  GSO degrades
/// at runtime too: a send rejected with EINVAL/EIO permanently drops
/// that transport to plain sends -- the probe is an optimization, not a
/// promise.

#include <cstdint>
#include <optional>
#include <string_view>

namespace bacp::net {

/// Requested (or resolved) offload tier of a UdpTransport.  Auto is
/// request-only: resolve_offload() maps it to the best supported tier.
enum class OffloadMode : std::uint8_t {
    Mmsg = 0,
    Gso = 1,
    Auto = 255,
};

/// What the running kernel supports, probed once per process.
struct OffloadCaps {
    bool gso = false;    // UDP_SEGMENT sockopt accepted
    bool gro = false;    // UDP_GRO sockopt accepted
    /// io_uring_setup + provided-buffer ring accepted.  No tier uses it;
    /// only the benchmark driver's stamp still reports it.
    bool uring = false;
};

/// Cached process-wide capability probe.
const OffloadCaps& offload_caps();

/// Auto -> best supported tier (Gso > Mmsg); explicit requests
/// are clamped to what the kernel can actually do (e.g. Gso on a
/// GSO-less kernel resolves to Mmsg).
OffloadMode resolve_offload(OffloadMode requested);

/// Stable lowercase name ("mmsg" / "gso" / "auto").
const char* offload_mode_name(OffloadMode mode);

/// Parses an --offload argument; nullopt on anything unrecognized.
std::optional<OffloadMode> parse_offload_mode(std::string_view text);

/// Logs the selected tier (and the full capability vector) to stderr,
/// once per process -- BENCH_* JSON records it too, this is just the
/// human breadcrumb that says which path actually ran.
void log_offload_tier_once(OffloadMode tier);

}  // namespace bacp::net
