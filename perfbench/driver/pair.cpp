// bulk and duplex_lossy: two NetEndpoints on a connected loopback UDP
// pair, both polled by one single-threaded loop.
//
// bulk          one-way, unimpaired, closed loop (E22's single-session
//               shape: w=16, 512 B, L=1 ms, offload auto).  The send
//               horizon caps it at w per L; codec, driver and transport
//               batching set the rest.  No server, no loss recovery.
// duplex_lossy  both endpoints originate, piggyback on, NAK on, seeded
//               Impairer loss and reorder both ways, open loop at a fixed
//               rate well below capacity.  Retransmit timers, NAK, ack
//               clipping, ack deferral and idle waits set latency and CPU;
//               goodput is pinned to the offered rate.

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ba/engine_core.hpp"
#include "ba/receiver.hpp"
#include "ba/sender.hpp"
#include "net/impairer.hpp"
#include "net/net_engine.hpp"
#include "net/offload.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "runtime/session_util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bacp;
using Core = ba::EngineCore<ba::Sender, ba::Receiver>;
using Endpoint = net::NetEndpoint<Core>;

constexpr std::size_t kSocketBuffer = std::size_t{4} << 20;
constexpr std::size_t kRing = std::size_t{1} << 14;  // > messages in flight
constexpr SimTime kDrainLimit = 30 * kSecond;

struct Shape {
    const char* name;
    Seq w;
    std::size_t payload;
    SimTime lifetime;
    /// Explicit retransmission timeout, far above the 1 ms granularity of
    /// net::wait_readable, so retransmissions follow the seeded
    /// impairment rather than scheduling noise.
    SimTime timeout;
    bool duplex;  // both endpoints originate
    bool piggyback;
    bool nak;
    std::optional<net::ImpairSpec> impair;
    /// Open loop: one message per gap per direction.  0 = closed loop,
    /// keeping `ahead` messages released beyond those delivered.
    SimTime gap;
    Seq ahead;
    Seq warm_msgs;  // per direction, delivered before the window opens
};

/// One direction of traffic and the checks on what arrives.
struct Direction {
    Endpoint* tx = nullptr;
    Seq released = 0;
    Seq delivered = 0;
    std::uint64_t bytes = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t out_of_order = 0;
    // By seq % kRing: when the message was first transmitted.
    std::vector<Seq> tx_seq = std::vector<Seq>(kRing, ~Seq{0});
    std::vector<SimTime> tx_at = std::vector<SimTime>(kRing, 0);
    std::vector<std::uint8_t> expected;
};

DriverCounts driver_counts(const Endpoint& a, const Endpoint& b) {
    DriverCounts c;
    c.add(a.metrics());
    c.add(b.metrics());
    c.piggybacked = static_cast<double>(a.piggybacked() + b.piggybacked());
    c.standalone_acks = static_cast<double>(a.standalone_acks() + b.standalone_acks());
    return c;
}

Result run_pair(const Args& args, const Shape& shape) {
    Result r;
    r.workload = shape.name;
    const SimTime t_begin = mono_ns();
    net::SteadyClock clock;

    auto [ua, ub] = net::UdpTransport::make_pair();
    for (net::UdpTransport* u : {ua.get(), ub.get()}) {
        u->request_buffer_sizes(kSocketBuffer);
        u->enable_offload(net::OffloadMode::Auto);
    }
    Tap ta(*ua);
    Tap tb(*ub);
    net::TimerWheel wa(clock);
    net::TimerWheel wb(clock);
    std::unique_ptr<net::Impairer> ia;
    std::unique_ptr<net::Impairer> ib;
    net::Transport* xa = &ta;
    net::Transport* xb = &tb;
    if (shape.impair) {
        ia = std::make_unique<net::Impairer>(ta, wa, *shape.impair,
                                             runtime::mix_seed(args.seed, 0xd1));
        ib = std::make_unique<net::Impairer>(tb, wb, *shape.impair,
                                             runtime::mix_seed(args.seed, 0xac));
        const std::size_t slots = 4 * static_cast<std::size_t>(shape.w) + 32;
        ia->reserve_slots(slots, shape.payload + 128);
        ib->reserve_slots(slots, shape.payload + 128);
        xa = ia.get();
        xb = ib.get();
    }

    // Per-seq tables are reserved to `count`; only what is sent is ever
    // touched, so a generous bound costs address space, not memory.
    const Seq cap = static_cast<Seq>(args.seconds * 524288.0) + 65536;
    net::NetConfig cfg;
    cfg.w = shape.w;
    cfg.payload_size = shape.payload;
    cfg.link_lifetime = shape.lifetime;
    cfg.timeout = shape.timeout;
    cfg.app_arrivals = true;
    cfg.enable_nak = shape.nak;
    cfg.piggyback = shape.piggyback;
    cfg.seed = args.seed;
    cfg.deadline = 3600 * kSecond;
    net::NetConfig ca = cfg;
    ca.count = cap;
    ca.rx_count = shape.duplex ? cap : 0;
    net::NetConfig cb = cfg;
    cb.count = shape.duplex ? cap : 0;
    cb.rx_count = cap;
    Endpoint a(ca, {}, wa, *xa);
    Endpoint b(cb, {}, wb, *xb);

    // Four slices a second: about 3000 messages a slice, so a slice that
    // a stall of tens of ms cuts short still holds 1000 latency samples.
    const int slices = slice_count(args.seconds, 4);
    const SimTime slice_ns = static_cast<SimTime>(args.seconds * 1e9 / slices);
    Window win(slices, slice_ns, static_cast<std::size_t>(args.seconds * 4e6));
    Waiter waiter({&ta, &tb}, clock);
    std::vector<SimTime> lag;
    lag.reserve(shape.gap > 0 ? static_cast<std::size_t>(args.seconds * 4e9 / shape.gap) : 0);
    std::vector<SimTime> transit;  // first transmission -> delivery
    transit.reserve(static_cast<std::size_t>(args.seconds * 4e6));
    SimTime gen_t0 = 0;

    Direction fwd;
    Direction rev;
    fwd.tx = &a;
    rev.tx = &b;
    const std::uint64_t seed = args.seed;
    const auto install = [&](Direction& d, Endpoint& tx, Endpoint& rx) {
        tx.set_payload_source([&d, &clock, &shape, seed](Seq s, std::vector<std::uint8_t>& out) {
            const std::size_t i = s % kRing;
            if (d.tx_seq[i] != s) {
                d.tx_seq[i] = s;
                d.tx_at[i] = clock.now();
            }
            out.resize(shape.payload);
            net::pattern_fill(payload_key(seed, s), out);
        });
        rx.set_deliver_sink([&d, &clock, &shape, &win, &transit, &gen_t0, seed](
                                Seq s, std::span<const std::uint8_t> p) {
            SpanScope span(Span::BenchObserve);
            const SimTime now = clock.now();
            if (s != d.delivered) ++d.out_of_order;
            d.expected.resize(shape.payload);
            net::pattern_fill(payload_key(seed, s), d.expected);
            if (p.size() != shape.payload || !std::equal(p.begin(), p.end(), d.expected.begin())) {
                ++d.mismatches;
            }
            ++d.delivered;
            d.bytes += p.size();
            const SimTime sent = now - d.tx_at[s % kRing];
            if (win.open() && transit.size() < transit.capacity()) transit.push_back(sent);
            // The open loop times a message from when it was due, so a
            // stall charges every message due behind it.  The closed loop
            // times it from its first transmission: timed from release,
            // each message waits about 5 ms for the window and the send
            // horizon while the loop sleeps, and a late wake-up of the
            // idle CPU (a few ms on a busy host) charged all 64 released
            // ahead, so the tail followed the host rather than the program.
            const SimTime latency =
                shape.gap > 0 ? now - (gen_t0 + static_cast<SimTime>(s) * shape.gap) : sent;
            win.sample(latency);
        });
    };
    install(fwd, a, b);
    if (shape.duplex) install(rev, b, a);

    const auto msgs = [&] { return fwd.delivered + rev.delivered; };
    const auto bytes = [&] { return fwd.bytes + rev.bytes; };
    bool generating = true;
    const auto feed = [&](Direction& d, SimTime now) {
        if (!generating) return;
        Seq want = shape.gap > 0 ? static_cast<Seq>((now - gen_t0) / shape.gap) + 1
                                 : d.delivered + shape.ahead;
        want = std::min(want, cap);
        if (want <= d.released) return;
        if (shape.gap > 0 && win.open()) {
            for (Seq k = d.released; k < want && lag.size() < lag.capacity(); ++k) {
                lag.push_back(now - (gen_t0 + static_cast<SimTime>(k) * shape.gap));
            }
        }
        SpanScope span(Span::EndpointPoll);
        d.tx->release(want - d.released);
        d.released = want;
    };

    Tap* const taps[] = {&ta, &tb};
    Tap::Counts taps0;
    Tap::Counts taps1;
    DriverCounts drv0;
    DriverCounts drv1;
    net::Metrics imp0;
    net::Metrics imp1;
    std::uint64_t fired0 = 0, fired1 = 0, work0 = 0, work1 = 0, allocs0 = 0, allocs1 = 0;
    const auto impair_totals = [&] {
        net::Metrics m;
        if (ia) m += ia->impair_stats();
        if (ib) m += ib->impair_stats();
        return m;
    };

    a.start();
    b.start();
    gen_t0 = clock.now();
    bool warm = false;
    SimTime drain_deadline = 0;
    double setup_s = 0;
    for (;;) {
        SimTime now = clock.now();
        feed(fwd, now);
        if (shape.duplex) feed(rev, now);
        std::size_t work = 0;
        {
            SpanScope span(Span::EndpointPoll);
            work += a.poll();
        }
        {
            SpanScope span(Span::EndpointPoll);
            work += b.poll();
        }
        now = clock.now();
        if (!warm && fwd.delivered >= shape.warm_msgs &&
            (!shape.duplex || rev.delivered >= shape.warm_msgs)) {
            warm = true;
            setup_s = static_cast<double>(mono_ns() - t_begin) / 1e9;
            if (args.setup_only) break;
            taps0 = sum_counts(taps);
            drv0 = driver_counts(a, b);
            imp0 = impair_totals();
            fired0 = wa.timers_fired() + wb.timers_fired();
            work0 = wa.fire_work() + wb.fire_work();
            spans().set_counting(true);
            waiter.set_counting(true);
            win.start(now, msgs(), bytes());
            allocs0 = allocs_now();
        } else if (win.open() && now >= win.next_mark()) {
            if (win.mark(now, msgs(), bytes())) {
                allocs1 = allocs_now();
                spans().set_counting(false);
                waiter.set_counting(false);
                taps1 = sum_counts(taps);
                drv1 = driver_counts(a, b);
                imp1 = impair_totals();
                fired1 = wa.timers_fired() + wb.timers_fired();
                work1 = wa.fire_work() + wb.fire_work();
                generating = false;
                drain_deadline = now + kDrainLimit;
            }
        }
        if (!generating && fwd.delivered == fwd.released && rev.delivered == rev.released) break;
        if (!generating && now > drain_deadline) {
            r.check(false, "drain did not deliver every released message");
            break;
        }
        if (!warm && now - gen_t0 > kDrainLimit) {
            r.check(false, "warm-up did not finish");
            break;
        }
        if (work == 0) {
            SimTime deadline = now + kSecond;
            if (const auto d = wa.next_deadline()) deadline = std::min(deadline, *d);
            if (const auto d = wb.next_deadline()) deadline = std::min(deadline, *d);
            if (win.open()) deadline = std::min(deadline, win.next_mark());
            if (generating && shape.gap > 0) {
                const Seq next = std::min(fwd.released, shape.duplex ? rev.released : fwd.released);
                deadline = std::min(deadline, gen_t0 + static_cast<SimTime>(next) * shape.gap);
            }
            waiter.wait_until(deadline);
        }
    }
    r.setup_s = setup_s;
    if (args.setup_only || !r.failures.empty()) return r;

    // Quiesce: let the last acks land, then every datagram a socket
    // accepted must have been received by its peer.
    for (int i = 0; i < 200; ++i) {
        a.poll();
        b.poll();
        const Tap::Counts c = sum_counts(taps);
        if (c.sent == c.received) break;
        waiter.wait_until(clock.now() + kMillisecond);
    }
    const Tap::Counts all = sum_counts(taps);
    const std::uint64_t kernel_drops = (all.sent - all.received) + ua->stats().send_drops +
                                       ub->stats().send_drops;

    Window::Figures f = win.figures();
    const Tap::Counts dtaps = taps1 - taps0;
    r.e2e_from(f, ratio(static_cast<double>(dtaps.bytes_sent), static_cast<double>(f.bytes)),
               setup_s);
    r.note("offload_tier", net::offload_mode_name(ua->offload_tier()));

    // ---- correctness ----
    const DriverCounts drv_end = driver_counts(a, b);
    r.attempted = fwd.released + rev.released;
    for (const Direction* d : {&fwd, &rev}) {
        r.failed += d->mismatches + d->out_of_order + (d->released - d->delivered);
    }
    r.check(fwd.mismatches + rev.mismatches == 0, "payload bytes differ from pattern_fill");
    r.check(fwd.out_of_order + rev.out_of_order == 0, "delivery out of order or duplicated");
    r.check(fwd.delivered == fwd.released && rev.delivered == rev.released,
            "delivered != offered");
    r.check(fwd.released < cap && rev.released < cap, "message capacity exhausted");
    r.check(drv_end.decode_errors == 0 && drv_end.crc_errors == 0, "decode or CRC errors");
    r.check(kernel_drops == 0, "kernel dropped datagrams");
    if (!shape.impair) r.check(drv_end.data_retx == 0, "retransmissions on a clean path");
    r.check(f.slices == slices, "timed window cut short");
    r.check(f.min_slice_samples >= 1000, "fewer than 1000 latency samples in a slice");

    // ---- per-layer ----
    NetLayerInputs in;
    in.fig = &f;
    in.waiter = &waiter;
    in.taps = dtaps;
    in.kernel_drops = kernel_drops;
    in.timers_fired = fired1 - fired0;
    in.fire_work = work1 - work0;
    in.allocs = allocs1 - allocs0;
    add_net_layers(r, in);
    const double m = static_cast<double>(f.msgs);
    r.layer("endpoint.self_ns_per_msg",
            ratio(static_cast<double>(spans().total(Span::EndpointPoll).self_ns), m));
    add_driver_layers(r, drv0, drv1, m);
    if (shape.impair) {
        r.layer("impairer.drop_ratio", ratio(static_cast<double>(imp1.dropped - imp0.dropped),
                                             static_cast<double>(imp1.offered - imp0.offered)));
    }
    if (shape.gap > 0) {
        r.layer("gen.lag_p99_us", quantile(lag, 0.99) / 1e3);
        r.note("gen.lag_samples", static_cast<double>(lag.size()));
    }
    r.layer("endpoint.transit_p50_us", quantile(transit, 0.50) / 1e3);
    r.layer("endpoint.transit_p99_us", quantile(transit, 0.99) / 1e3);
    return r;
}

}  // namespace

Result run_bulk(const Args& args) {
    Shape s;
    s.name = "bulk";
    s.w = 16;
    s.payload = 512;
    s.lifetime = 1 * kMillisecond;
    s.timeout = 50 * kMillisecond;
    s.duplex = false;
    s.piggyback = false;
    s.nak = false;
    s.gap = 0;
    s.ahead = 4 * s.w;
    s.warm_msgs = 8000;
    return run_pair(args, s);
}

Result run_duplex_lossy(const Args& args) {
    Shape s;
    s.name = "duplex_lossy";
    s.w = 512;  // horizon cap w per L = 39k msgs/s, 6.5x the offered rate
    s.payload = 512;
    s.lifetime = 13 * kMillisecond;  // 3 ms delay + 10 ms reorder spike
    s.timeout = 60 * kMillisecond;
    s.duplex = true;
    s.piggyback = true;
    s.nak = true;
    // Heavy reordering and rare loss: every slice holds hundreds of
    // reordered copies, which hold up in-order delivery and drive NAKs,
    // spurious retransmissions and ack clipping; the wait for the window
    // sets the tail (w=1024 cut p95 from 26 to 20 ms).  Loss-repair
    // stalls are rare enough to miss most slices, so their count does not
    // set the tail.  Delays of several ms keep a late wake-up of the idle
    // CPU (a few ms on a busy host) small beside the waits the protocol
    // imposes.
    net::ImpairSpec spec;
    spec.loss = 0.0001;
    spec.reorder = 0.2;
    spec.delay_lo = 1 * kMillisecond;
    spec.delay_hi = 3 * kMillisecond;
    spec.reorder_extra = 10 * kMillisecond;
    s.impair = spec;
    s.gap = kSecond / 6000;  // 6000 msgs/s per direction
    s.ahead = 0;
    s.warm_msgs = 3000;
    return run_pair(args, s);
}

void add_driver_layers(Result& r, const DriverCounts& s, const DriverCounts& e, double msgs) {
    r.layer("driver.retx_ratio", ratio(e.data_retx - s.data_retx, e.data_new - s.data_new));
    r.layer("driver.dup_ratio", ratio(e.duplicates - s.duplicates, e.delivered - s.delivered));
    r.layer("driver.acks_per_msg", ratio(e.acks_sent - s.acks_sent, msgs));
    const double pb = e.piggybacked - s.piggybacked;
    r.layer("driver.piggyback_ratio", ratio(pb, pb + e.standalone_acks - s.standalone_acks));
    r.layer("driver.naks_per_msg", ratio(e.naks_sent - s.naks_sent, msgs));
}

}  // namespace perfbench
