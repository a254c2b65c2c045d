// des: link::StreamMux with four paced streams over lossy ByteChannels
// under sim::Simulator, on a fixed message count.
//
// The only workload with no OS: it exercises the slab event queue and the
// DES link layer's own copy of the driver logic.  Goodput and CPU are
// wall-time measures of simulating a fixed amount of traffic; latency is
// send->delivery in simulated time, exact for a seed, so it moves only
// when a change alters protocol decisions.

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "link/stream_mux.hpp"
#include "net/net_engine.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bacp;

constexpr Seq kStreams = 4;
constexpr Seq kWindow = 32;
constexpr std::size_t kPayload = 256;
constexpr double kLoss = 0.02;
constexpr SimTime kGap = 1 * kMillisecond;  // per stream: 1000 msgs/s of simulated time
constexpr std::size_t kRing = std::size_t{1} << 12;  // send times per stream, by index
// Sizes the fixed work: simulated messages per wall second at which the
// window lasts about --seconds.
constexpr double kNominalRate = 150000;
constexpr double kWarmFraction = 0.08;

}  // namespace

Result run_des(const Args& args) {
    Result r;
    r.workload = "des";
    const SimTime t_begin = mono_ns();
    const Seq per_stream = static_cast<Seq>(
        std::ceil(kNominalRate * args.seconds / static_cast<double>(kStreams) / (1 - kWarmFraction)));
    const Seq warm_per_stream = static_cast<Seq>(static_cast<double>(per_stream) * kWarmFraction);

    sim::Simulator sim;
    link::StreamMux::Config cfg;
    cfg.streams = kStreams;
    cfg.w = kWindow;
    cfg.loss = kLoss;
    cfg.enable_nak = true;
    cfg.seed = args.seed;
    link::StreamMux mux(sim, cfg);

    const int slices = slice_count(args.seconds);
    Window win(slices, 0, static_cast<std::size_t>(kStreams * per_stream));
    std::vector<Seq> sent(kStreams, 0);
    std::vector<Seq> delivered(kStreams, 0);
    std::vector<SimTime> sent_at(kStreams * kRing, 0);
    std::uint64_t mismatches = 0;
    std::uint64_t overruns = 0;
    std::uint64_t bytes = 0;
    std::vector<std::uint8_t> expected(kPayload);
    const std::uint64_t seed = args.seed;
    const auto key = [seed](Seq stream, Seq index) {
        return payload_key(seed, (stream << 32) | index);
    };

    mux.set_on_deliver([&](Seq stream, std::span<const std::uint8_t> p) {
        SpanScope span(Span::BenchObserve);
        const Seq index = delivered[stream]++;
        net::pattern_fill(key(stream, index), expected);
        if (p.size() != kPayload || !std::equal(p.begin(), p.end(), expected.begin())) {
            ++mismatches;
        }
        bytes += p.size();
        win.sample(sim.now() - sent_at[stream * kRing + index % kRing]);
    });

    std::function<void(Seq)> send_next = [&](Seq stream) {
        const Seq index = sent[stream]++;
        if (index - delivered[stream] >= kRing) ++overruns;
        sent_at[stream * kRing + index % kRing] = sim.now();
        std::vector<std::uint8_t> payload(kPayload);
        net::pattern_fill(key(stream, index), payload);
        {
            SpanScope span(Span::LinkSend);
            mux.send(stream, std::move(payload));
        }
        if (sent[stream] < per_stream) {
            sim.schedule_after(kGap, [&send_next, stream] { send_next(stream); });
        }
    };
    for (Seq s = 0; s < kStreams; ++s) {
        sim.schedule_at(static_cast<SimTime>(s) * (kGap / static_cast<SimTime>(kStreams)),
                        [&send_next, s] { send_next(s); });
    }

    const auto total = [](const std::vector<Seq>& v) {
        Seq t = 0;
        for (const Seq x : v) t += x;
        return t;
    };
    const auto frames = [&] {
        return mux.data_stats().sent + mux.ack_stats().sent;
    };
    const auto wire_bytes = [&] {
        return mux.data_stats().bytes_sent + mux.ack_stats().bytes_sent;
    };

    // Warm-up: the first kWarmFraction of the traffic, run before timing.
    const SimTime t_warm = static_cast<SimTime>(warm_per_stream) * kGap;
    const SimTime t_end = static_cast<SimTime>(per_stream) * kGap;
    sim.run_until(t_warm);
    const double setup_s = static_cast<double>(mono_ns() - t_begin) / 1e9;
    r.setup_s = setup_s;
    if (args.setup_only) return r;

    const std::uint64_t events0 = sim.total_fired();
    const std::uint64_t frames0 = frames();
    const std::uint64_t wire0 = wire_bytes();
    const std::uint64_t retx0 = mux.retransmissions();
    const Seq sent0 = total(sent);
    spans().set_counting(true);
    win.start(mono_ns(), total(delivered), bytes);
    const std::uint64_t allocs0 = allocs_now();
    for (int k = 1; k <= slices; ++k) {
        const SimTime until = t_warm + (t_end - t_warm) * k / slices;
        {
            SpanScope span(Span::SimRun);
            sim.run_until(until);
        }
        win.mark(mono_ns(), total(delivered), bytes);
    }
    const std::uint64_t allocs1 = allocs_now();
    spans().set_counting(false);
    const std::uint64_t events1 = sim.total_fired();
    const std::uint64_t frames1 = frames();
    const std::uint64_t wire1 = wire_bytes();
    const std::uint64_t retx1 = mux.retransmissions();
    const Seq sent1 = total(sent);

    sim.run();  // drain: every outstanding message delivered and acked

    Window::Figures f = win.figures();
    r.e2e_from(f, ratio(static_cast<double>(wire1 - wire0), static_cast<double>(f.bytes)),
               setup_s);
    r.note("msgs_per_stream", static_cast<double>(per_stream));
    r.note("latency_clock", "simulated");

    // ---- correctness ----
    r.attempted = total(sent);
    std::uint64_t good = 0;
    for (Seq s = 0; s < kStreams; ++s) {
        good += std::min(delivered[s], per_stream);
        r.check(delivered[s] == per_stream && mux.delivered_count(s) == per_stream,
                "stream " + std::to_string(s) + " delivered != offered");
    }
    r.failed = (r.attempted - good) + mismatches;
    r.check(mismatches == 0, "payload bytes differ from pattern_fill");
    r.check(overruns == 0, "more than the send-time ring in flight");
    r.check(mux.idle(), "mux not idle after drain");
    r.check(f.min_slice_samples >= 1000, "fewer than 1000 latency samples in a slice");

    // ---- per-layer ----
    const Spans& sp = spans();
    const double m = static_cast<double>(f.msgs);
    const double msgs_sent = static_cast<double>(sent1 - sent0);
    const double events = static_cast<double>(events1 - events0);
    r.layer("sim.ns_per_event", ratio(static_cast<double>(sp.total(Span::SimRun).self_ns), events));
    r.layer("sim.events_per_msg", ratio(events, m));
    r.layer("link.send_ns_per_msg",
            ratio(static_cast<double>(sp.total(Span::LinkSend).self_ns), msgs_sent));
    r.layer("link.retx_ratio", ratio(static_cast<double>(retx1 - retx0), msgs_sent));
    r.layer("link.frames_per_msg", ratio(static_cast<double>(frames1 - frames0), m));
    r.layer("alloc.steady_per_dgram",
            ratio(static_cast<double>(allocs1 - allocs0), static_cast<double>(frames1 - frames0)));
    r.layer("proc.sys_share", f.sys_share);
    r.layer("proc.minor_faults_per_msg", ratio(static_cast<double>(f.minflt), m));
    if (sp.enabled()) {
        const double covered = static_cast<double>(sp.total(Span::SimRun).self_ns +
                                                   sp.total(Span::LinkSend).self_ns);
        r.layer("trace.coverage", ratio(covered, static_cast<double>(f.wall_ns)));
        r.layer("bench.self_ns_per_msg",
                ratio(static_cast<double>(sp.total(Span::BenchObserve).self_ns), m));
    }
    return r;
}

}  // namespace perfbench
