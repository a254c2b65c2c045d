#pragma once

/// \file transport.hpp
/// Batch-first datagram transports for the real-time runtime.
///
/// A Transport is a bidirectional, unreliable, datagram-boundary-
/// preserving carrier -- deliberately the weakest channel the paper's
/// protocols are proved correct over.  Sends are best-effort: a full
/// socket buffer or queue drops datagrams (counted, never blocking), and
/// receives never block either, so a single-threaded event loop can
/// interleave I/O with timer processing.
///
/// The API is *batch-only*: the two virtuals every transport implements
/// are send_batch() and recv_batch(), moving a whole window's worth of
/// datagrams per boundary crossing.  That is the shape the protocol
/// already produces -- NetEngine builds a window of DATA per tick and one
/// block ack covers a burst -- so per-datagram fixed costs (syscalls,
/// allocations) amortize across it.  A caller that genuinely has one
/// datagram passes a batch of one; the single-shot send()/recv() shims
/// that once papered over the old interface are gone.
///
/// Two implementations:
///   UdpTransport     a non-blocking IPv4/UDP socket on loopback;
///                    send_batch/recv_batch are sendmmsg(2)/
///                    recvmmsg(2) in kernel-sized chunks (usually one
///                    call); fd() exposes the descriptor for
///                    poll(2)-based waiting.  enable_offload() climbs
///                    the kernel-offload ladder (net/offload.hpp):
///                    UDP_SEGMENT send coalescing + UDP_GRO receive
///                    splitting -- same interface, same arena
///                    contract, graceful fallback to plain mmsg.
///   InprocTransport  a cross-connected in-process queue pair for
///                    deterministic unit tests and single-process runs;
///                    a batch is one mutex acquisition, and a free list
///                    recycles payload buffers so the steady state never
///                    allocates.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "net/metrics.hpp"
#include "net/offload.hpp"

namespace bacp::net {

/// Largest UDP payload over IPv4 (65535 - 20 IP - 8 UDP).
inline constexpr std::size_t kMaxDatagram = 65507;

/// Source/destination address of one datagram: an IPv4 address and port
/// in host byte order.  A default-constructed PeerAddr is "no address"
/// (what a connected-socket transport records).  This is half of the
/// server's session key -- (PeerAddr, conn id) names a session -- so it
/// is a value type with equality and a perfect 48-bit key for hashing.
struct PeerAddr {
    std::uint32_t ip = 0;
    std::uint16_t port = 0;

    bool valid() const { return ip != 0 || port != 0; }

    /// Injective packing, usable directly as a hash key.
    std::uint64_t key() const { return (std::uint64_t{ip} << 16) | port; }

    friend bool operator==(const PeerAddr&, const PeerAddr&) = default;
};

/// Caller-owned, reusable receive arena for Transport::recv_batch(): one
/// contiguous byte slab of capacity x max_datagram plus a length record
/// per datagram.  All memory is allocated at construction (or on an
/// explicit reshape()); filling and draining it is allocation-free, which
/// is what lets the steady-state receive path run at exactly zero heap
/// allocations per datagram (gated by bench_e21 --check-budget).  The
/// slab is left uninitialized: only bytes a transport writes are ever
/// read back, so a page of it becomes resident only when a datagram
/// first lands there (a w=512 arena at the UDP maximum is 33.5 MB of
/// address space, mostly never touched).
///
/// Slots are fixed-stride: datagram i occupies bytes
/// [i * max_datagram, i * max_datagram + len[i]).  The stride makes the
/// recvmmsg iovec setup a trivial loop and keeps every slot writable up
/// to the UDP maximum, so no datagram can be truncated.
class RecvBatch {
public:
    static constexpr std::size_t kDefaultCapacity = 32;

    explicit RecvBatch(std::size_t capacity = kDefaultCapacity,
                       std::size_t max_datagram = kMaxDatagram) {
        reshape(capacity, max_datagram);
    }

    /// Reallocates the arena.  Not for the steady state.
    void reshape(std::size_t capacity, std::size_t max_datagram = kMaxDatagram) {
        capacity_ = capacity > 0 ? capacity : 1;
        max_datagram_ = max_datagram > 0 ? max_datagram : 1;
        slab_ = std::make_unique_for_overwrite<std::uint8_t[]>(capacity_ * max_datagram_);
        lens_.assign(capacity_, 0);
        peers_.assign(capacity_, PeerAddr{});
        size_ = 0;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t max_datagram() const { return max_datagram_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    void clear() { size_ = 0; }

    /// Datagram \p i of the last recv_batch().  Precondition: i < size().
    std::span<const std::uint8_t> operator[](std::size_t i) const {
        return {slab_.get() + i * max_datagram_, lens_[i]};
    }

    /// Source address of datagram \p i, when the transport records one
    /// (unconnected UDP sockets, InprocHub server endpoints); a
    /// default-constructed PeerAddr otherwise.
    PeerAddr peer(std::size_t i) const { return peers_[i]; }

    // ---- writer side (transports only) --------------------------------

    /// Writable region of the next free slot (max_datagram bytes).
    std::span<std::uint8_t> next_slot() {
        return {slab_.get() + size_ * max_datagram_, max_datagram_};
    }

    /// Writable region of slot \p i; recvmmsg points one iovec at each.
    std::span<std::uint8_t> slot(std::size_t i) {
        return {slab_.get() + i * max_datagram_, max_datagram_};
    }

    /// Marks the next slot as holding \p len received bytes from \p peer.
    /// Slots are committed strictly in order (the fixed stride implies
    /// it).
    void push_filled(std::size_t len, PeerAddr peer = {}) {
        lens_[size_] = len;
        peers_[size_] = peer;
        ++size_;
    }

private:
    std::unique_ptr<std::uint8_t[]> slab_;  // uninitialized; see class comment
    std::vector<std::size_t> lens_;
    std::vector<PeerAddr> peers_;
    std::size_t capacity_ = 0;
    std::size_t max_datagram_ = 0;
    std::size_t size_ = 0;
};

class Transport;
class TimerWheel;

/// Builder for a send_batch() call: encoded datagrams packed back to
/// back in one reusable slab.  append_with() lets an encoder serialize
/// directly onto the slab tail (see wire::encode_*_to), so staging a
/// frame costs no allocation once the slab has reached its high-water
/// mark.  flush() hands the whole batch to a Transport in one call.
class SendBatch {
public:
    std::size_t size() const { return extents_.size(); }
    bool empty() const { return extents_.empty(); }
    std::size_t bytes() const { return slab_.size(); }

    void clear() {
        slab_.clear();
        extents_.clear();
    }

    /// Pre-sizes the builder for \p datagrams staged entries totalling up
    /// to \p bytes.  Owners that know their worst-case burst (an endpoint
    /// tick, the impairer's matured-copy backlog) call this at wiring
    /// time so the slab's high-water growth happens before the allocation
    /// gates snap their baseline, not mid-run.
    void reserve(std::size_t datagrams, std::size_t bytes) {
        slab_.reserve(bytes);
        extents_.reserve(datagrams);
        spans_scratch_.reserve(datagrams);
    }

    /// Stages a copy of \p datagram.
    void append(std::span<const std::uint8_t> datagram) {
        append_with([&](std::vector<std::uint8_t>& slab) {
            slab.insert(slab.end(), datagram.begin(), datagram.end());
        });
    }

    /// Stages whatever \p fn appends to the slab as one datagram.
    template <typename Fn>
    void append_with(Fn&& fn) {
        const std::size_t base = slab_.size();
        fn(slab_);
        extents_.push_back({base, slab_.size() - base});
    }

    /// Span-of-spans view of the staged batch, valid until the next
    /// mutation.  (Rebuilt on demand: the slab may have reallocated.)
    std::span<const std::span<const std::uint8_t>> spans() const {
        spans_scratch_.clear();
        spans_scratch_.reserve(extents_.size());
        for (const Extent& e : extents_) {
            spans_scratch_.emplace_back(slab_.data() + e.offset, e.length);
        }
        return spans_scratch_;
    }

    /// Sends every staged datagram through \p t in one send_batch call
    /// and clears the builder.  Returns how many the transport accepted
    /// (the tail of a partial send was counted in its send_drops).
    std::size_t flush(Transport& t);

private:
    struct Extent {
        std::size_t offset;
        std::size_t length;
    };
    std::vector<std::uint8_t> slab_;
    std::vector<Extent> extents_;
    mutable std::vector<std::span<const std::uint8_t>> spans_scratch_;
};

class Transport {
public:
    virtual ~Transport() = default;

    /// Sends \p datagrams in order, amortizing the boundary crossing
    /// across the batch (one sendmmsg on UDP).  Returns how many were
    /// accepted; a transport that runs out of room mid-batch counts the
    /// tail in send_drops and returns the prefix length.  Loss-silent
    /// decorators (Impairer) accept everything.
    virtual std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) = 0;

    /// Non-blocking bulk receive into the caller's arena: drains up to
    /// batch.capacity() whole datagrams.  A batch shorter than the arena
    /// means the source ran dry during the call: on UDP, the last of the
    /// call's recvmmsgs came back short (a large arena, or GRO staging
    /// that holds fewer datagrams than the arena, takes several).
    /// net::drain_ingress stops on that.  Clears \p batch first;
    /// returns batch.size().
    /// Steady-state allocation-free by contract -- the arena is caller
    /// memory and transports only reuse warmed scratch.
    virtual std::size_t recv_batch(RecvBatch& batch) = 0;

    /// Pushes out anything the transport has staged internally (an
    /// Impairer's matured delayed copies).  Default: nothing staged.
    virtual void flush() {}

    /// Pollable file descriptor, or -1 when the transport has none
    /// (in-process queues).  Fixed for the transport's lifetime, so an
    /// event loop reads it once, before its first wait.
    virtual int fd() const { return -1; }

    /// The kernel-offload tier this transport is currently running
    /// (never Auto); decorators forward to the transport they wrap.
    /// Everything but UdpTransport is the trivial baseline.
    virtual OffloadMode offload_tier() const { return OffloadMode::Mmsg; }

    const Metrics& stats() const { return stats_; }

protected:
    Metrics stats_;
};

inline std::size_t SendBatch::flush(Transport& t) {
    if (extents_.empty()) return 0;
    const std::size_t accepted = t.send_batch(spans());
    clear();
    return accepted;
}

/// A Transport that can also address each datagram individually: what a
/// server needs to speak to many peers over one shared socket.  The
/// unaddressed send_batch() remains available for connected use.
class AddressedTransport : public Transport {
public:
    /// Sends datagrams[i] to peers[i] (parallel spans, equal length) in
    /// one boundary crossing.  Same partial-send contract as
    /// send_batch(): returns the accepted prefix length, counting the
    /// tail in send_drops.
    virtual std::size_t send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                                      std::span<const PeerAddr> peers) = 0;
};

/// Builder for a send_batch_to() call: SendBatch's slab idiom plus a
/// destination per staged datagram, so one server flush can interleave
/// frames bound for many sessions and still cross the syscall boundary
/// once.  This is what keeps batching economics alive under
/// multiplexing -- per-session egress is tiny (often one ack), but the
/// *shared* batch still amortizes sendmmsg across every session that
/// spoke this tick.
class AddressedSendBatch {
public:
    std::size_t size() const { return extents_.size(); }
    bool empty() const { return extents_.empty(); }
    std::size_t bytes() const { return slab_.size(); }

    void clear() {
        slab_.clear();
        extents_.clear();
    }

    /// Stages a copy of \p datagram bound for \p peer.
    void append(PeerAddr peer, std::span<const std::uint8_t> datagram) {
        append_with(peer, [&](std::vector<std::uint8_t>& slab) {
            slab.insert(slab.end(), datagram.begin(), datagram.end());
        });
    }

    /// Stages whatever \p fn appends to the slab as one datagram bound
    /// for \p peer.
    template <typename Fn>
    void append_with(PeerAddr peer, Fn&& fn) {
        const std::size_t base = slab_.size();
        fn(slab_);
        extents_.push_back({base, slab_.size() - base, peer});
    }

    /// Sends every staged datagram through \p t in one send_batch_to
    /// call and clears the builder.  Returns how many were accepted.
    std::size_t flush(AddressedTransport& t) {
        if (extents_.empty()) return 0;
        spans_scratch_.clear();
        peers_scratch_.clear();
        spans_scratch_.reserve(extents_.size());
        peers_scratch_.reserve(extents_.size());
        for (const Extent& e : extents_) {
            spans_scratch_.emplace_back(slab_.data() + e.offset, e.length);
            peers_scratch_.push_back(e.peer);
        }
        const std::size_t accepted = t.send_batch_to(spans_scratch_, peers_scratch_);
        clear();
        return accepted;
    }

private:
    struct Extent {
        std::size_t offset;
        std::size_t length;
        PeerAddr peer;
    };
    std::vector<std::uint8_t> slab_;
    std::vector<Extent> extents_;
    std::vector<std::span<const std::uint8_t>> spans_scratch_;
    std::vector<PeerAddr> peers_scratch_;
};

/// Non-blocking UDP over 127.0.0.1.
class UdpTransport final : public AddressedTransport {
public:
    /// Alias of net::kMaxDatagram, kept for existing spellings.
    static constexpr std::size_t kMaxDatagram = net::kMaxDatagram;

    /// Binds a non-blocking socket on 127.0.0.1:\p port (0 = ephemeral).
    /// With \p reuse_port, sets SO_REUSEPORT before binding so N server
    /// shards can share one port -- the kernel then hashes each client's
    /// source address to exactly one shard's socket, which is what makes
    /// per-shard session tables race-free by construction.
    /// Throws std::system_error on socket failures.
    explicit UdpTransport(std::uint16_t port = 0, bool reuse_port = false);
    ~UdpTransport() override;

    UdpTransport(const UdpTransport&) = delete;
    UdpTransport& operator=(const UdpTransport&) = delete;

    /// Fixes the peer to 127.0.0.1:\p port (connect(2), so send/recv need
    /// no per-datagram address).
    void connect_peer(std::uint16_t port);

    std::uint16_t local_port() const { return port_; }

    /// Best-effort SO_RCVBUF/SO_SNDBUF request (the kernel clamps to its
    /// rmem/wmem limits; failures are ignored).  A server shard absorbing
    /// synchronized bursts from hundreds of sessions needs more than the
    /// default receive buffer, or the loss it recovers from is self-made.
    void request_buffer_sizes(std::size_t bytes);

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override;
    std::size_t send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                              std::span<const PeerAddr> peers) override;
    std::size_t recv_batch(RecvBatch& batch) override;

    /// The socket fd, whatever the offload tier.
    int fd() const override { return fd_; }

    /// Climbs the offload ladder (resolving Auto against the probed
    /// capabilities): Gso turns on UDP_SEGMENT send coalescing and the
    /// UDP_GRO receive split.  Call before traffic, not mid-stream (the
    /// GRO sockopt changes what the kernel delivers).  Unsupported
    /// features silently stay on the mmsg baseline; offload_tier()
    /// reports what actually runs, including a later runtime demotion
    /// (a GSO send the kernel rejects with EINVAL/EIO).
    void enable_offload(OffloadMode mode);
    OffloadMode offload_tier() const override;

    /// Test hook: the next GSO-carrying sendmmsg behaves as if the
    /// kernel rejected it with EINVAL, exercising the disable-and-
    /// resend-plain fallback without needing a GSO-less kernel.
    void fail_next_gso_send_for_test() { gso_fail_injected_ = true; }

    /// Two ephemeral loopback sockets connected to each other.
    static std::pair<std::unique_ptr<UdpTransport>, std::unique_ptr<UdpTransport>> make_pair();

private:
    /// Reusable mmsghdr/iovec/sockaddr/cmsg arrays for
    /// sendmmsg/recvmmsg plus the GSO run map and GRO staging buffers.
    /// The header arrays have a fixed size (one syscall's worth) and
    /// larger send batches go out in chunks of it, so no batch size
    /// makes them grow.  Defined in the .cpp to keep <sys/socket.h> out
    /// of this header.
    struct Scratch;

    /// Behind send_batch / send_batch_to (empty \p peers = the connected
    /// socket): hands the batch to send_gso or send_mmsg one scratch-sized
    /// chunk at a time.
    std::size_t send_chunked(std::span<const std::span<const std::uint8_t>> datagrams,
                             std::span<const PeerAddr> peers);

    /// Plain path: one mmsghdr per datagram, drained by drain_sendmmsg.
    std::size_t send_mmsg(std::span<const std::span<const std::uint8_t>> datagrams,
                          std::span<const PeerAddr> peers);

    /// The sendmmsg drain loop (headers are already staged in scratch
    /// when this runs).
    std::size_t drain_sendmmsg(std::span<const std::span<const std::uint8_t>> datagrams);

    /// GSO path: coalesces equal-stride runs into UDP_SEGMENT
    /// super-buffer entries and drains them; empty \p peers means the
    /// connected socket.  Falls back (permanently) to the plain path on
    /// a kernel rejection.
    std::size_t send_gso(std::span<const std::span<const std::uint8_t>> datagrams,
                         std::span<const PeerAddr> peers);

    /// Plain receive path: one recvmmsg of at most one scratch-sized
    /// chunk, appended to \p batch; true when every offered slot filled.
    bool recv_mmsg_chunk(RecvBatch& batch);

    /// GRO path: recvmmsg into full-size staging buffers, split each
    /// coalesced payload back into the caller's fixed-stride arena, and
    /// stage again while every buffer filled and the arena has room.
    /// Staged segments that overflow the arena carry over to the next
    /// call (no syscall needed until the staging is drained).
    std::size_t recv_gro(RecvBatch& batch);
    bool stage_gro();
    void drain_gro_staging(RecvBatch& batch);

    bool gso_active() const { return gso_on_ && !gso_failed_; }

    int fd_ = -1;
    std::uint16_t port_ = 0;
    std::unique_ptr<Scratch> scratch_;

    bool gso_on_ = false;      // UDP_SEGMENT coalescing requested + supported
    bool gro_on_ = false;      // UDP_GRO sockopt set; recv must use staging
    bool gso_failed_ = false;  // kernel rejected a GSO send: plain forever
    bool gso_fail_injected_ = false;
};

/// In-process datagram pair: what one side sends, the other receives.
class InprocTransport final : public Transport {
public:
    /// Cross-connected pair; each direction holds at most \p capacity
    /// datagrams (tail drop beyond, like a full socket buffer).
    static std::pair<std::unique_ptr<InprocTransport>, std::unique_ptr<InprocTransport>>
    make_pair(std::size_t capacity = 4096);

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override;
    std::size_t recv_batch(RecvBatch& batch) override;

    /// Pre-warms this endpoint's send-side free list with \p count
    /// recycled buffers of \p bytes capacity each.  Without it the pool
    /// grows on demand and buffers first used for small frames get
    /// regrown the first time they recycle under a larger one -- high-
    /// water trickle the allocation gates would count as steady-state
    /// work.  Call on both endpoints of a pair to cover both directions.
    void reserve_buffers(std::size_t count, std::size_t bytes);

private:
    /// Bounded FIFO with tail drop is exactly a ring buffer.  The free
    /// list recycles payload buffers across the queue: recv_batch copies
    /// a datagram into the caller's arena and parks the emptied vector;
    /// send_batch refills a parked vector instead of allocating.  Once
    /// every buffer has cycled at the high-water payload size, the pair
    /// is allocation-free.
    struct Queue {
        explicit Queue(std::size_t capacity) : datagrams(capacity) {}
        std::mutex mutex;
        RingBuffer<std::vector<std::uint8_t>> datagrams;
        std::vector<std::vector<std::uint8_t>> free_list;
    };

    InprocTransport(std::shared_ptr<Queue> inbox, std::shared_ptr<Queue> outbox)
        : inbox_(std::move(inbox)), outbox_(std::move(outbox)) {}

    std::shared_ptr<Queue> inbox_;   // peers' sends land here
    std::shared_ptr<Queue> outbox_;  // our sends land in the peer's inbox
};

/// wait_readable() stages up to this many descriptors on the stack; a
/// larger span falls back to one (cold, off the steady path) heap
/// allocation instead of asserting, so callers may pass any number.
inline constexpr std::size_t kWaitFdStackCapacity = 64;

/// Sleeps until one of \p fds is readable or \p max_wait elapses
/// (rounded up to whole milliseconds); negative descriptors are skipped,
/// and with no usable descriptor it just sleeps.  Returns true when a
/// descriptor was reported readable.
///
/// The whole-ms rounding is kept on purpose.  A ppoll(2) variant with a
/// ns timespec, and nothing else changed, was measured against this one
/// with perfbench at seed 1 (3 alternating pairs of 10 s runs, shared
/// 4-vCPU VM): it
/// cut duplex_lossy latency p50 13.1 -> 11.9 ms and p95 26.9 -> 21.9
/// ms and lifted bulk goodput 53.1 -> 57.4 Mbit/s, but raised
/// duplex_lossy CPU per message 10.05 -> 16.02 us (1.59x): a sub-ms
/// wheel deadline then costs a wake-up of its own.  ns waits first need
/// wake-ups coalesced to the wheel tick.
bool wait_readable(std::span<const int> fds, SimTime max_wait);

/// Longest single idle_wait(): with no timer due sooner, a loop still
/// wakes this often to check its stop flag and run deadline.
inline constexpr SimTime kIdleWaitCap = 50 * kMillisecond;

/// Earliest deadline armed on any of \p wheels, or nullopt when none is.
std::optional<SimTime> earliest_deadline(std::span<const TimerWheel* const> wheels);

/// The one idle wait of every real-time event loop: sleeps on \p fds
/// (through wait_readable) until one is readable, the earliest timer
/// armed on \p wheels is due, or kIdleWaitCap elapses, whichever comes
/// first.  The wheels must share one clock.  Returns true when a
/// descriptor was reported readable.
bool idle_wait(std::span<const int> fds, std::span<const TimerWheel* const> wheels);

}  // namespace bacp::net
