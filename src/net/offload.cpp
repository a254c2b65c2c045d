#include "net/offload.hpp"

#include <linux/io_uring.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <mutex>

// Older libcs may lack the UDP offload sockopt names even when the
// kernel honors the numbers; the values are ABI.
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace bacp::net {

namespace {

bool probe_udp_sockopt(int optname, int value) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd < 0) return false;
    const bool ok = ::setsockopt(fd, SOL_UDP, optname, &value, sizeof(value)) == 0;
    ::close(fd);
    return ok;
}

/// io_uring_setup plus a provided-buffer ring registration (5.19+).
/// Only OffloadCaps::uring reads it.
bool probe_uring() {
    io_uring_params params{};
    const long ring =
        ::syscall(__NR_io_uring_setup, 4U, &params);
    if (ring < 0) return false;
    const int ring_fd = static_cast<int>(ring);

    bool ok = false;
    const std::size_t kEntries = 8;
    const std::size_t bytes = kEntries * sizeof(io_uring_buf);
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem != MAP_FAILED) {
        io_uring_buf_reg reg{};
        reg.ring_addr = reinterpret_cast<std::uint64_t>(mem);
        reg.ring_entries = kEntries;
        reg.bgid = 0;
        ok = ::syscall(__NR_io_uring_register, ring_fd, IORING_REGISTER_PBUF_RING,
                       &reg, 1U) == 0;
        ::munmap(mem, bytes);
    }
    ::close(ring_fd);
    return ok;
}

}  // namespace

const OffloadCaps& offload_caps() {
    static const OffloadCaps caps = [] {
        OffloadCaps c;
        // A real segment size, not a flag: UDP_SEGMENT rejects 0.
        c.gso = probe_udp_sockopt(UDP_SEGMENT, 1400);
        c.gro = probe_udp_sockopt(UDP_GRO, 1);
        c.uring = probe_uring();
        return c;
    }();
    return caps;
}

OffloadMode resolve_offload(OffloadMode requested) {
    const OffloadCaps& caps = offload_caps();
    // Auto and Gso take segmentation offload wherever the kernel has it:
    // it amortizes the whole stack traversal, ~10x mmsg goodput on
    // loopback bulk (BENCH_e21).
    if (requested != OffloadMode::Mmsg && (caps.gso || caps.gro)) return OffloadMode::Gso;
    return OffloadMode::Mmsg;
}

const char* offload_mode_name(OffloadMode mode) {
    switch (mode) {
        case OffloadMode::Mmsg: return "mmsg";
        case OffloadMode::Gso: return "gso";
        case OffloadMode::Auto: return "auto";
    }
    return "?";
}

std::optional<OffloadMode> parse_offload_mode(std::string_view text) {
    if (text == "mmsg") return OffloadMode::Mmsg;
    if (text == "gso") return OffloadMode::Gso;
    if (text == "auto") return OffloadMode::Auto;
    return std::nullopt;
}

void log_offload_tier_once(OffloadMode tier) {
    static std::once_flag flag;
    std::call_once(flag, [tier] {
        const OffloadCaps& caps = offload_caps();
        std::fprintf(stderr,
                     "net: offload tier=%s (caps: gso=%d gro=%d)\n",
                     offload_mode_name(tier), caps.gso ? 1 : 0, caps.gro ? 1 : 0);
    });
}

}  // namespace bacp::net
