#include "net/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <thread>

#include "common/assert.hpp"
#include "net/timer_wheel.hpp"

// The offload sockopt names may be missing from older libcs even when
// the kernel honors the numbers; the values are ABI.
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace bacp::net {

namespace {

/// Most segments one UDP_SEGMENT super-buffer may carry.  The kernel's
/// UDP_MAX_SEGMENTS has been >= 64 since the feature landed; staying at
/// the floor keeps super-buffers portable across every GSO kernel.
constexpr std::size_t kGsoMaxSegments = 64;

/// GRO staging buffers must fit any coalesced payload the kernel can
/// hand us -- a full UDP datagram's worth.
constexpr std::size_t kGroBufferBytes = kMaxDatagram;
constexpr std::size_t kGroMaxSlots = 8;

[[noreturn]] void throw_errno(const char* what) {
    throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
}

/// A full socket buffer (or transient kernel shortage) is loss, which
/// the protocol already tolerates; anything else is a bug.
bool tolerable_send_errno(int err) {
    return err == EAGAIN || err == EWOULDBLOCK || err == ENOBUFS || err == ECONNREFUSED;
}

}  // namespace

// ---- UdpTransport -----------------------------------------------------

/// mmsghdr/iovec staging arrays, reused across calls; resize() past the
/// high-water mark is the only allocation, so steady-state batches are
/// allocation-free.  Headers are wired to their iovecs once per reshape
/// -- per-call work is just the iovec base/len stores, which keeps the
/// hot path to two writes per datagram.
struct UdpTransport::Scratch {
    std::vector<::mmsghdr> hdrs;
    std::vector<::iovec> iovs;
    std::vector<::sockaddr_in> addrs;  // per-slot msg_name storage

    // ---- GSO send entries (used only when coalescing is on) -----------
    struct SendCtrl {
        alignas(::cmsghdr) char buf[CMSG_SPACE(sizeof(std::uint16_t))];
    };
    std::vector<SendCtrl> ctrls;             // per-entry UDP_SEGMENT cmsg
    std::vector<std::size_t> entry_dgrams;   // datagrams entry i covers
    std::vector<std::size_t> entry_bytes;    // total payload of entry i
    std::vector<std::uint8_t> entry_gso;     // entry i carries a GSO cmsg
    /// Landing area for runs whose spans are not already contiguous;
    /// pre-sized per batch so entry iovecs never dangle on growth.
    std::vector<std::uint8_t> gso_slab;

    // ---- GRO receive staging ------------------------------------------
    struct RecvCtrl {
        alignas(::cmsghdr) char buf[CMSG_SPACE(sizeof(int)) * 2];
    };
    struct GroBuf {
        std::size_t len = 0;  // bytes the kernel put in the buffer
        std::size_t seg = 0;  // UDP_GRO segment size; 0 = not coalesced
        PeerAddr peer;
    };
    std::unique_ptr<std::uint8_t[]> gro_slab;  // gro_slots x kGroBufferBytes, uninitialized
    std::vector<::mmsghdr> gro_hdrs;
    std::vector<::iovec> gro_iovs;
    std::vector<::sockaddr_in> gro_addrs;
    std::vector<RecvCtrl> gro_ctrls;
    std::vector<GroBuf> gro_meta;
    std::size_t gro_slots = 0;
    std::size_t gro_count = 0;  // staged buffers not yet fully drained
    std::size_t gro_idx = 0;    // drain cursor: buffer
    std::size_t gro_off = 0;    // drain cursor: byte offset within it

    void shape(std::size_t n) {
        if (hdrs.size() >= n) return;
        hdrs.resize(n);
        iovs.resize(n);
        addrs.resize(n);
        ctrls.resize(n);
        entry_dgrams.resize(n);
        entry_bytes.resize(n);
        entry_gso.resize(n);
        // resize() may have moved iovs; re-wire every header.  msg_name
        // stays null here: each call path sets (or clears) it per slot,
        // since connected sends must not carry an address while
        // addressed sends and server receives must.  Same for
        // msg_control: only GSO entries carry one.
        for (std::size_t i = 0; i < hdrs.size(); ++i) {
            std::memset(&hdrs[i], 0, sizeof(hdrs[i]));
            hdrs[i].msg_hdr.msg_iov = &iovs[i];
            hdrs[i].msg_hdr.msg_iovlen = 1;
        }
    }

    /// One-time staging setup for the GRO receive path; sized from the
    /// arena so staging memory tracks the arena's own footprint.
    void shape_gro(std::size_t slots) {
        gro_slots = slots;
        // Uninitialized, like RecvBatch's slab: the kernel writes every
        // byte a drain reads, so untouched pages never become resident.
        gro_slab = std::make_unique_for_overwrite<std::uint8_t[]>(slots * kGroBufferBytes);
        gro_hdrs.resize(slots);
        gro_iovs.resize(slots);
        gro_addrs.resize(slots);
        gro_ctrls.resize(slots);
        gro_meta.resize(slots);
        for (std::size_t i = 0; i < slots; ++i) {
            std::memset(&gro_hdrs[i], 0, sizeof(gro_hdrs[i]));
            gro_iovs[i].iov_base = gro_slab.get() + i * kGroBufferBytes;
            gro_iovs[i].iov_len = kGroBufferBytes;
            gro_hdrs[i].msg_hdr.msg_iov = &gro_iovs[i];
            gro_hdrs[i].msg_hdr.msg_iovlen = 1;
            gro_hdrs[i].msg_hdr.msg_name = &gro_addrs[i];
            gro_hdrs[i].msg_hdr.msg_control = gro_ctrls[i].buf;
        }
    }
};

UdpTransport::UdpTransport(std::uint16_t port, bool reuse_port)
    : scratch_(std::make_unique<Scratch>()) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) throw_errno("socket");
    const int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) throw_errno("fcntl");
    if (reuse_port) {
        const int one = 1;
        if (::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
            throw_errno("setsockopt(SO_REUSEPORT)");
        }
    }
    sockaddr_in addr = loopback(port);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("bind");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        throw_errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
}

UdpTransport::~UdpTransport() {
    if (fd_ >= 0) ::close(fd_);
}

void UdpTransport::request_buffer_sizes(std::size_t bytes) {
    const int v = static_cast<int>(std::min<std::size_t>(bytes, 1U << 30));
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &v, sizeof(v));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
}

void UdpTransport::connect_peer(std::uint16_t port) {
    const sockaddr_in addr = loopback(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
        throw_errno("connect");
    }
}

void UdpTransport::enable_offload(OffloadMode mode) {
    const OffloadMode tier = resolve_offload(mode);
    log_offload_tier_once(tier);
    if (tier == OffloadMode::Mmsg) return;
    gso_on_ = offload_caps().gso;
    if (offload_caps().gro) {
        const int one = 1;
        gro_on_ = ::setsockopt(fd_, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
    }
}

OffloadMode UdpTransport::offload_tier() const {
    if (gso_active() || gro_on_) return OffloadMode::Gso;
    return OffloadMode::Mmsg;
}

std::size_t UdpTransport::send_batch(std::span<const std::span<const std::uint8_t>> datagrams) {
    if (datagrams.empty()) return 0;
    if (gso_active()) return send_gso(datagrams, {});
    Scratch& sc = *scratch_;
    sc.shape(datagrams.size());
    for (std::size_t i = 0; i < datagrams.size(); ++i) {
        BACP_ASSERT_MSG(datagrams[i].size() <= kMaxDatagram, "datagram exceeds UDP limit");
        // sendmsg never writes through msg_iov; the const_cast is the
        // usual iovec impedance mismatch.
        sc.iovs[i].iov_base = const_cast<std::uint8_t*>(datagrams[i].data());
        sc.iovs[i].iov_len = datagrams[i].size();
        // A connected-socket send must carry no address (EISCONN
        // otherwise); clear what send_batch_to / recv_batch may have
        // set.  Same for the control block a GSO entry may have left.
        sc.hdrs[i].msg_hdr.msg_name = nullptr;
        sc.hdrs[i].msg_hdr.msg_namelen = 0;
        sc.hdrs[i].msg_hdr.msg_control = nullptr;
        sc.hdrs[i].msg_hdr.msg_controllen = 0;
    }
    return drain_sendmmsg(datagrams);
}

std::size_t UdpTransport::send_batch_to(
    std::span<const std::span<const std::uint8_t>> datagrams,
    std::span<const PeerAddr> peers) {
    BACP_ASSERT_MSG(datagrams.size() == peers.size(), "addressed batch spans not parallel");
    if (datagrams.empty()) return 0;
    if (gso_active()) return send_gso(datagrams, peers);
    Scratch& sc = *scratch_;
    sc.shape(datagrams.size());
    for (std::size_t i = 0; i < datagrams.size(); ++i) {
        BACP_ASSERT_MSG(datagrams[i].size() <= kMaxDatagram, "datagram exceeds UDP limit");
        sc.iovs[i].iov_base = const_cast<std::uint8_t*>(datagrams[i].data());
        sc.iovs[i].iov_len = datagrams[i].size();
        sc.addrs[i] = sockaddr_in{};
        sc.addrs[i].sin_family = AF_INET;
        sc.addrs[i].sin_addr.s_addr = htonl(peers[i].ip);
        sc.addrs[i].sin_port = htons(peers[i].port);
        sc.hdrs[i].msg_hdr.msg_name = &sc.addrs[i];
        sc.hdrs[i].msg_hdr.msg_namelen = sizeof(sc.addrs[i]);
        sc.hdrs[i].msg_hdr.msg_control = nullptr;
        sc.hdrs[i].msg_hdr.msg_controllen = 0;
    }
    return drain_sendmmsg(datagrams);
}

/// The GSO send path.  Scans the batch for *runs* -- consecutive
/// datagrams of one stride (the last may be shorter: a GSO super-buffer
/// is split at the stride with a short tail allowed), bound for one
/// peer, at most kGsoMaxSegments and one UDP datagram's bytes -- and
/// stages each run as a single mmsghdr entry carrying a UDP_SEGMENT
/// cmsg.  The kernel splits it back into datagrams after one traversal
/// of the stack; the receiver (with UDP_GRO) re-coalesces, so a whole
/// window crosses loopback as a handful of skbs.
///
/// SendBatch/AddressedSendBatch pack datagrams back-to-back in one
/// slab, so runs are almost always already contiguous in memory and the
/// entry iovec just points at the first span -- zero copies.  Scattered
/// spans are copied into scratch (pre-sized; no steady-state
/// allocation).  Runs of one go out as plain entries, cmsg-less, in the
/// same sendmmsg -- mixing coalesced and plain entries is fine.
std::size_t UdpTransport::send_gso(std::span<const std::span<const std::uint8_t>> datagrams,
                                   std::span<const PeerAddr> peers) {
    Scratch& sc = *scratch_;
    sc.shape(datagrams.size());
    const bool addressed = !peers.empty();
    std::size_t total_bytes = 0;
    for (const auto& d : datagrams) total_bytes += d.size();
    if (sc.gso_slab.size() < total_bytes) sc.gso_slab.resize(total_bytes);
    std::size_t slab_used = 0;

    std::size_t entries = 0;
    std::size_t i = 0;
    while (i < datagrams.size()) {
        const std::size_t stride = datagrams[i].size();
        BACP_ASSERT_MSG(stride <= kMaxDatagram, "datagram exceeds UDP limit");
        std::size_t bytes = stride;
        std::size_t j = i + 1;
        bool contiguous = true;
        if (stride > 0) {
            while (j < datagrams.size() && j - i < kGsoMaxSegments) {
                const std::size_t len = datagrams[j].size();
                if (len > stride || len == 0 || bytes + len > kMaxDatagram) break;
                if (addressed && !(peers[j] == peers[i])) break;
                if (datagrams[j].data() !=
                    datagrams[j - 1].data() + datagrams[j - 1].size()) {
                    contiguous = false;
                }
                bytes += len;
                ++j;
                if (len < stride) break;  // a short segment closes the buffer
            }
        }
        const std::size_t run = j - i;

        ::mmsghdr& h = sc.hdrs[entries];
        ::iovec& iov = sc.iovs[entries];
        if (run == 1 || contiguous) {
            iov.iov_base = const_cast<std::uint8_t*>(datagrams[i].data());
        } else {
            std::uint8_t* dst = sc.gso_slab.data() + slab_used;
            iov.iov_base = dst;
            for (std::size_t k = i; k < j; ++k) {
                std::memcpy(dst, datagrams[k].data(), datagrams[k].size());
                dst += datagrams[k].size();
            }
            slab_used += bytes;
        }
        iov.iov_len = bytes;
        if (addressed) {
            sc.addrs[entries] = sockaddr_in{};
            sc.addrs[entries].sin_family = AF_INET;
            sc.addrs[entries].sin_addr.s_addr = htonl(peers[i].ip);
            sc.addrs[entries].sin_port = htons(peers[i].port);
            h.msg_hdr.msg_name = &sc.addrs[entries];
            h.msg_hdr.msg_namelen = sizeof(sc.addrs[entries]);
        } else {
            h.msg_hdr.msg_name = nullptr;
            h.msg_hdr.msg_namelen = 0;
        }
        if (run > 1) {
            h.msg_hdr.msg_control = sc.ctrls[entries].buf;
            h.msg_hdr.msg_controllen = sizeof(sc.ctrls[entries].buf);
            ::cmsghdr* cm = CMSG_FIRSTHDR(&h.msg_hdr);
            cm->cmsg_level = SOL_UDP;
            cm->cmsg_type = UDP_SEGMENT;
            cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
            const auto seg = static_cast<std::uint16_t>(stride);
            std::memcpy(CMSG_DATA(cm), &seg, sizeof(seg));
        } else {
            h.msg_hdr.msg_control = nullptr;
            h.msg_hdr.msg_controllen = 0;
        }
        sc.entry_dgrams[entries] = run;
        sc.entry_bytes[entries] = bytes;
        sc.entry_gso[entries] = run > 1 ? 1 : 0;
        ++entries;
        i = j;
    }

    // The entry-level drain: like drain_sendmmsg, but one accepted
    // entry may account for many datagrams.
    std::size_t sent_entries = 0;
    std::size_t sent_dgrams = 0;
    while (sent_entries < entries) {
        int n;
        if (gso_fail_injected_) {
            gso_fail_injected_ = false;
            n = -1;
            errno = EINVAL;
        } else {
            n = ::sendmmsg(fd_, sc.hdrs.data() + sent_entries,
                           static_cast<unsigned int>(entries - sent_entries), 0);
            ++stats_.syscalls_sent;
        }
        if (n < 0) {
            if (errno == EINTR) continue;
            if (errno == EINVAL || errno == EIO) {
                // The kernel (or a driver under it) refused a
                // super-buffer at send time -- setsockopt acceptance is
                // not a promise.  Coalescing is off for good on this
                // socket; the unsent tail goes back through the plain
                // path, so no datagram is lost to the downgrade.
                gso_failed_ = true;
                const auto tail = datagrams.subspan(sent_dgrams);
                const std::size_t resent =
                    addressed ? send_batch_to(tail, peers.subspan(sent_dgrams))
                              : send_batch(tail);
                return sent_dgrams + resent;
            }
            BACP_ASSERT_MSG(tolerable_send_errno(errno), "udp sendmmsg (gso) failed");
            break;  // the unsent tail is a drop, counted below
        }
        for (int k = 0; k < n; ++k) {
            const std::size_t e = sent_entries + static_cast<std::size_t>(k);
            stats_.bytes_sent += sc.entry_bytes[e];
            stats_.datagrams_sent += sc.entry_dgrams[e];
            sent_dgrams += sc.entry_dgrams[e];
            if (sc.entry_gso[e]) {
                ++stats_.gso_sends;
                stats_.gso_segments += sc.entry_dgrams[e];
            }
        }
        sent_entries += static_cast<std::size_t>(n);
    }
    stats_.send_drops += datagrams.size() - sent_dgrams;
    return sent_dgrams;
}

/// Runs the staged sendmmsg loop over \p datagrams (headers already set
/// up in scratch) and keeps the send-side stats.
std::size_t UdpTransport::drain_sendmmsg(
    std::span<const std::span<const std::uint8_t>> datagrams) {
    Scratch& sc = *scratch_;
    std::size_t sent = 0;
    while (sent < datagrams.size()) {
        const int n = ::sendmmsg(fd_, sc.hdrs.data() + sent,
                                 static_cast<unsigned int>(datagrams.size() - sent), 0);
        ++stats_.syscalls_sent;
        if (n < 0) {
            if (errno == EINTR) continue;
            BACP_ASSERT_MSG(tolerable_send_errno(errno), "udp sendmmsg failed");
            break;  // the unsent tail is a drop, counted below
        }
        for (int i = 0; i < n; ++i) {
            stats_.bytes_sent += datagrams[sent + static_cast<std::size_t>(i)].size();
        }
        stats_.datagrams_sent += static_cast<std::uint64_t>(n);
        sent += static_cast<std::size_t>(n);
        // A short count means the next datagram failed without setting
        // errno; loop once more so the retry surfaces (and classifies)
        // the error, typically EAGAIN on a full buffer.
    }
    stats_.send_drops += datagrams.size() - sent;
    return sent;
}

std::size_t UdpTransport::recv_batch(RecvBatch& batch) {
    batch.clear();
    if (gro_on_) return recv_gro(batch);
    Scratch& sc = *scratch_;
    const std::size_t cap = batch.capacity();
    sc.shape(cap);
    for (std::size_t i = 0; i < cap; ++i) {
        const std::span<std::uint8_t> slot = batch.slot(i);
        sc.iovs[i].iov_base = slot.data();
        sc.iovs[i].iov_len = slot.size();
        // Record each datagram's source so a server can demux by peer;
        // the kernel rewrites msg_namelen per datagram, so reset it
        // every call.  Clear any control block a GSO send entry staged.
        sc.hdrs[i].msg_hdr.msg_name = &sc.addrs[i];
        sc.hdrs[i].msg_hdr.msg_namelen = sizeof(sc.addrs[i]);
        sc.hdrs[i].msg_hdr.msg_control = nullptr;
        sc.hdrs[i].msg_hdr.msg_controllen = 0;
    }
    int n;
    do {
        n = ::recvmmsg(fd_, sc.hdrs.data(), static_cast<unsigned int>(cap), 0, nullptr);
        ++stats_.syscalls_received;
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
        BACP_ASSERT_MSG(errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED,
                        "udp recvmmsg failed");
        return 0;
    }
    for (int i = 0; i < n; ++i) {
        const std::size_t len = sc.hdrs[i].msg_len;
        PeerAddr peer;
        if (sc.hdrs[i].msg_hdr.msg_namelen >= sizeof(sockaddr_in) &&
            sc.addrs[i].sin_family == AF_INET) {
            peer.ip = ntohl(sc.addrs[i].sin_addr.s_addr);
            peer.port = ntohs(sc.addrs[i].sin_port);
        }
        batch.push_filled(len, peer);
        stats_.bytes_received += len;
    }
    stats_.datagrams_received += static_cast<std::uint64_t>(n);
    return static_cast<std::size_t>(n);
}

/// The GRO receive path.  With UDP_GRO set, the kernel may coalesce a
/// burst of equal-size datagrams into one buffer and report the segment
/// size in a cmsg -- so staging buffers must be full-datagram-size (a
/// fixed-stride arena slot would truncate), and recv_batch's job becomes
/// splitting staged payloads back into the arena.  Staging is sized from
/// the arena (its byte footprint, capped at kGroMaxSlots buffers), and
/// segments that overflow the arena carry over: the next call drains
/// them without a syscall, which is where the datagrams-per-syscall win
/// on this tier comes from.
std::size_t UdpTransport::recv_gro(RecvBatch& batch) {
    Scratch& sc = *scratch_;
    if (sc.gro_slots == 0) {
        const std::size_t want =
            (batch.capacity() * batch.max_datagram() + kGroBufferBytes - 1) / kGroBufferBytes;
        sc.shape_gro(std::clamp<std::size_t>(want, 1, kGroMaxSlots));
    }
    // Carried-over segments first; a full arena means no syscall at all.
    drain_gro_staging(batch);
    if (batch.size() == batch.capacity() || sc.gro_count > 0) return batch.size();

    for (std::size_t i = 0; i < sc.gro_slots; ++i) {
        sc.gro_iovs[i].iov_len = kGroBufferBytes;
        sc.gro_hdrs[i].msg_hdr.msg_namelen = sizeof(sc.gro_addrs[i]);
        sc.gro_hdrs[i].msg_hdr.msg_controllen = sizeof(sc.gro_ctrls[i].buf);
        sc.gro_hdrs[i].msg_hdr.msg_flags = 0;
    }
    int n;
    do {
        n = ::recvmmsg(fd_, sc.gro_hdrs.data(), static_cast<unsigned int>(sc.gro_slots), 0,
                       nullptr);
        ++stats_.syscalls_received;
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
        BACP_ASSERT_MSG(errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED,
                        "udp recvmmsg (gro) failed");
        return batch.size();
    }
    for (int i = 0; i < n; ++i) {
        Scratch::GroBuf& gb = sc.gro_meta[static_cast<std::size_t>(i)];
        ::msghdr& mh = sc.gro_hdrs[i].msg_hdr;
        gb.len = sc.gro_hdrs[i].msg_len;
        gb.seg = 0;
        gb.peer = PeerAddr{};
        if (mh.msg_namelen >= sizeof(sockaddr_in) &&
            sc.gro_addrs[static_cast<std::size_t>(i)].sin_family == AF_INET) {
            gb.peer.ip = ntohl(sc.gro_addrs[static_cast<std::size_t>(i)].sin_addr.s_addr);
            gb.peer.port = ntohs(sc.gro_addrs[static_cast<std::size_t>(i)].sin_port);
        }
        for (::cmsghdr* cm = CMSG_FIRSTHDR(&mh); cm != nullptr; cm = CMSG_NXTHDR(&mh, cm)) {
            if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
                int seg = 0;
                std::memcpy(&seg, CMSG_DATA(cm), sizeof(seg));
                if (seg > 0) gb.seg = static_cast<std::size_t>(seg);
            }
        }
        if (gb.seg > 0 && gb.len > gb.seg) {
            ++stats_.gro_recvs;
            stats_.gro_segments += (gb.len + gb.seg - 1) / gb.seg;
        }
    }
    sc.gro_count = static_cast<std::size_t>(n);
    sc.gro_idx = 0;
    sc.gro_off = 0;
    drain_gro_staging(batch);
    return batch.size();
}

/// Moves staged segments into the arena until one side runs out.  A
/// coalesced buffer splits at its segment size (short tail allowed, per
/// the GRO contract); seg == 0 means the buffer is one plain datagram.
void UdpTransport::drain_gro_staging(RecvBatch& batch) {
    Scratch& sc = *scratch_;
    while (sc.gro_count > 0 && batch.size() < batch.capacity()) {
        const Scratch::GroBuf& gb = sc.gro_meta[sc.gro_idx];
        const std::uint8_t* base = sc.gro_slab.get() + sc.gro_idx * kGroBufferBytes;
        const std::size_t remaining = gb.len - sc.gro_off;
        const std::size_t take = gb.seg == 0 ? remaining : std::min(remaining, gb.seg);
        const std::span<std::uint8_t> slot = batch.slot(batch.size());
        // An oversize segment clamps to the slot, mirroring the
        // truncation a too-small arena would see on the plain path.
        const std::size_t len = std::min(take, slot.size());
        std::memcpy(slot.data(), base + sc.gro_off, len);
        batch.push_filled(len, gb.peer);
        stats_.bytes_received += len;
        ++stats_.datagrams_received;
        sc.gro_off += take;
        if (sc.gro_off >= gb.len) {
            --sc.gro_count;
            ++sc.gro_idx;
            sc.gro_off = 0;
        }
    }
}

std::pair<std::unique_ptr<UdpTransport>, std::unique_ptr<UdpTransport>>
UdpTransport::make_pair() {
    auto a = std::make_unique<UdpTransport>();
    auto b = std::make_unique<UdpTransport>();
    a->connect_peer(b->local_port());
    b->connect_peer(a->local_port());
    return {std::move(a), std::move(b)};
}

// ---- InprocTransport --------------------------------------------------

std::pair<std::unique_ptr<InprocTransport>, std::unique_ptr<InprocTransport>>
InprocTransport::make_pair(std::size_t capacity) {
    auto ab = std::make_shared<Queue>(capacity);
    auto ba = std::make_shared<Queue>(capacity);
    // a's outbox is b's inbox and vice versa.
    auto a = std::unique_ptr<InprocTransport>(new InprocTransport(ba, ab));
    auto b = std::unique_ptr<InprocTransport>(new InprocTransport(ab, ba));
    return {std::move(a), std::move(b)};
}

void InprocTransport::reserve_buffers(std::size_t count, std::size_t bytes) {
    const std::scoped_lock lock(outbox_->mutex);
    if (outbox_->free_list.size() >= count) return;
    outbox_->free_list.reserve(std::max(count, outbox_->datagrams.capacity()));
    while (outbox_->free_list.size() < count) {
        outbox_->free_list.emplace_back();
        outbox_->free_list.back().reserve(bytes);
    }
}

std::size_t InprocTransport::send_batch(std::span<const std::span<const std::uint8_t>> datagrams) {
    if (datagrams.empty()) return 0;
    std::size_t accepted = 0;
    std::uint64_t bytes = 0;
    {
        const std::scoped_lock lock(outbox_->mutex);
        for (const std::span<const std::uint8_t> datagram : datagrams) {
            if (outbox_->datagrams.full()) break;  // tail drop, like a full socket buffer
            std::vector<std::uint8_t> buffer;
            if (!outbox_->free_list.empty()) {
                buffer = std::move(outbox_->free_list.back());  // recycled capacity
                outbox_->free_list.pop_back();
            }
            buffer.assign(datagram.begin(), datagram.end());
            outbox_->datagrams.push(std::move(buffer));
            ++accepted;
            bytes += datagram.size();
        }
    }
    ++stats_.syscalls_sent;  // one queue sweep = one boundary crossing
    stats_.datagrams_sent += accepted;
    stats_.bytes_sent += bytes;
    stats_.send_drops += datagrams.size() - accepted;
    return accepted;
}

std::size_t InprocTransport::recv_batch(RecvBatch& batch) {
    batch.clear();
    std::size_t n = 0;
    std::uint64_t bytes = 0;
    {
        const std::scoped_lock lock(inbox_->mutex);
        while (n < batch.capacity() && !inbox_->datagrams.empty()) {
            std::vector<std::uint8_t> datagram = inbox_->datagrams.pop();
            BACP_ASSERT_MSG(datagram.size() <= batch.max_datagram(),
                            "inproc datagram exceeds arena slot");
            const std::span<std::uint8_t> slot = batch.slot(n);
            std::copy(datagram.begin(), datagram.end(), slot.begin());
            batch.push_filled(datagram.size());
            bytes += datagram.size();
            ++n;
            // Park the emptied buffer for the sender to refill: the pair
            // stops allocating once every buffer has cycled.
            datagram.clear();
            if (inbox_->free_list.size() < inbox_->datagrams.capacity()) {
                inbox_->free_list.push_back(std::move(datagram));
            }
        }
    }
    ++stats_.syscalls_received;
    stats_.datagrams_received += n;
    stats_.bytes_received += bytes;
    return n;
}

// ---- wait_readable ----------------------------------------------------

bool wait_readable(std::span<const int> fds, SimTime max_wait) {
    if (max_wait < 0) max_wait = 0;
    // Round up so a wait never returns before the deadline it covers.
    const int timeout_ms =
        static_cast<int>((max_wait + kMillisecond - 1) / kMillisecond);

    // Stage on the stack up to the documented capacity; larger spans take
    // one heap allocation rather than a hard cap (the old BACP_ASSERT(n <
    // 8) made an 9-fd caller a crash instead of a wait).
    pollfd stack_entries[kWaitFdStackCapacity];
    std::vector<pollfd> heap_entries;
    pollfd* entries = stack_entries;
    std::size_t usable = 0;
    for (const int fd : fds) {
        if (fd >= 0) ++usable;
    }
    if (usable > kWaitFdStackCapacity) {
        heap_entries.resize(usable);
        entries = heap_entries.data();
    }
    nfds_t count = 0;
    for (const int fd : fds) {
        if (fd < 0) continue;
        entries[count].fd = fd;
        entries[count].events = POLLIN;
        entries[count].revents = 0;
        ++count;
    }
    if (count == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(std::max(timeout_ms, 1)));
        return false;
    }
    const int ready = ::poll(entries, count, timeout_ms);
    return ready > 0;
}

// ---- idle_wait --------------------------------------------------------

std::optional<SimTime> earliest_deadline(std::span<const TimerWheel* const> wheels) {
    std::optional<SimTime> earliest;
    for (const TimerWheel* wheel : wheels) {
        const std::optional<SimTime> next = wheel->next_deadline();
        if (next && (!earliest || *next < *earliest)) earliest = next;
    }
    return earliest;
}

bool idle_wait(std::span<const int> fds, std::span<const TimerWheel* const> wheels) {
    SimTime wait = kIdleWaitCap;
    if (const auto next = earliest_deadline(wheels)) {
        wait = std::min(wait, *next - wheels.front()->now());
    }
    return wait_readable(fds, wait);
}

}  // namespace bacp::net
