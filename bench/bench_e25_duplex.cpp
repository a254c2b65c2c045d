// E25 -- duplex: piggybacked DATA+ACK over the real-time runtime.
//
// E13 measured ack piggybacking inside the DES; this bench measures the
// same policy where it actually pays: net::NetEngine running one duplex
// NetEndpoint at each end of an impaired channel, acks deferred by
// runtime::DuplexDriver and carried by reverse DATA as wire type 4
// (DATA+ACK) frames.
//
// The headline scenario is *paced bidirectional load* -- both directions
// release one message per kPace (an interactive/streaming shape, the
// workload piggybacking exists for) -- because a closed-loop bulk blast
// is the adversarial case for deferral: the only trigger for reverse
// DATA is an ack arrival, and the acks are exactly what is being
// deferred, so each side's flush timer fires before the other's window
// opens.  The bulk rows are still printed (honesty about that shape);
// the gates ride on the paced rows:
//
//   1. piggyback ratio: >= 50% of all ack blocks ride reverse DATA
//      (measured: >90% -- misses concentrate in timeout stalls).
//   2. datagram savings: the duplex run moves both directions in fewer
//      total datagrams than TWO one-way sessions moving the same bytes.
//   3. steady-state allocations: the second half of the duplex transfer
//      allocates nothing (same counting-new hook as E20/E21/E22);
//      --check-budget X exits nonzero above X allocs per datagram.
//
// All gated rows run over InprocTransport + ManualClock, so every
// number above is a pure function of the seed; the bench replays the
// headline run and fails on any divergence.  A wall-clock UDP duplex
// row (skipped with --quick) shows the same configuration over real
// sockets.
//
//   --quick           smaller transfers, no UDP row (CI smoke; same gates)
//   --check-budget X  gate steady-state allocs per datagram at X

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "alloc_counter.hpp"
#include "json_out.hpp"
#include "net/net_session.hpp"
#include "workload/report.hpp"

// ---- the bench -------------------------------------------------------------

using namespace bacp;
using namespace bacp::literals;

namespace {

constexpr std::size_t kPayload = 512;
constexpr Seq kWindow = 32;
constexpr double kLoss = 0.05;
constexpr std::uint64_t kSeed = 25;
// Matched to the impairer's actual 0.2-1 ms per-copy jitter: an honest
// channel-lifetime bound keeps the derived timeout (and therefore every
// loss stall, when no DATA flows and deferred acks can only age toward
// the flush timer) proportionate to the real round trip.
constexpr SimTime kLifetime = 2 * kMillisecond;
// One message per kPace per direction; the deferral bound comfortably
// covers one pacing gap plus jitter, so an ack decided between two
// paced sends always lives to ride the second one.
constexpr SimTime kPace = 1 * kMillisecond;
constexpr SimTime kPbDelay = 4 * kMillisecond;

Seq g_count = 600;  // per direction (150 in --quick smoke runs)

net::NetConfig config(bool duplex, bool piggyback) {
    net::NetConfig cfg;
    cfg.w = kWindow;
    cfg.count = g_count;
    cfg.payload_size = kPayload;
    cfg.impair = net::ImpairSpec::lossy(kLoss);
    cfg.seed = kSeed;
    cfg.link_lifetime = kLifetime;
    cfg.arrival_interval = kPace;
    cfg.deadline = 120 * kSecond;
    if (duplex) {
        cfg.reverse_count = g_count;
        cfg.piggyback = piggyback;
        cfg.piggyback_delay = kPbDelay;
    }
    return cfg;
}

struct DuplexRun {
    net::NetReport report;
    double steady_allocs_per_dgram = 0.0;
    std::uint64_t steady_allocs = 0;
    std::uint64_t steady_dgrams = 0;
};

/// One duplex transfer; the observer snaps the allocator once both
/// directions pass half delivery, and the steady figure is everything
/// allocated from that point to completion, per datagram moved.
DuplexRun run_duplex(bool piggyback, net::NetMode mode) {
    DuplexRun out;
    net::BaNetEngine engine(config(/*duplex=*/true, piggyback), {}, mode);
    const std::uint64_t half_bytes =
        static_cast<std::uint64_t>(g_count) * kPayload / 2;
    bool snapped = false;
    std::uint64_t snap_allocs = 0;
    std::uint64_t last_allocs = 0;
    net::Metrics snap_transport;
    out.report = engine.run([&](net::BaNetEngine& e) {
        if (snapped) {
            // The observer runs once more after the final service
            // iteration, before the engine assembles its report -- this
            // reading bounds the steady window to protocol work and
            // keeps the report's own histograms out of the count.
            last_allocs = bench::allocs_now();
            return;
        }
        if (e.sender().bytes_delivered() < half_bytes ||
            e.receiver().bytes_delivered() < half_bytes) {
            return;
        }
        snapped = true;
        snap_transport = e.transport_snapshot();
        snap_allocs = bench::allocs_now();
        last_allocs = snap_allocs;
        if (std::getenv("E25_ALLOC_PROBE") != nullptr) bench::start_alloc_probe();
    });
    bench::stop_alloc_probe();
    if (snapped) {
        const net::Metrics end = engine.transport_snapshot();
        out.steady_allocs = last_allocs - snap_allocs;
        out.steady_dgrams = (end.datagrams_sent + end.datagrams_received) -
                            (snap_transport.datagrams_sent + snap_transport.datagrams_received);
        if (out.steady_dgrams > 0) {
            out.steady_allocs_per_dgram = static_cast<double>(out.steady_allocs) /
                                          static_cast<double>(out.steady_dgrams);
        }
    }
    return out;
}

/// A one-way session moving g_count messages A -> B under the same
/// impairment and pacing.  Two of these (seeds s and s+1, mirroring two
/// independent sockets) are the baseline the duplex run must beat on
/// total datagrams.
net::NetReport run_oneway(std::uint64_t seed) {
    net::NetConfig cfg = config(/*duplex=*/false, /*piggyback=*/false);
    cfg.seed = seed;
    net::BaNetEngine engine(cfg, {}, net::NetMode::Inproc);
    return engine.run();
}

std::uint64_t total_datagrams(const net::NetReport& r) {
    return r.transport_totals().datagrams_sent;
}

std::string ratio_cell(const net::NetReport& r) {
    return workload::fmt(r.piggyback_ratio() * 100, 1) + "% (" +
           std::to_string(r.piggybacked) + "/" +
           std::to_string(r.piggybacked + r.standalone_acks) + ")";
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    double check_budget = -1.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        if (std::strcmp(argv[i], "--check-budget") == 0 && i + 1 < argc) {
            check_budget = std::atof(argv[++i]);
        }
    }
    if (quick) g_count = 150;

    std::printf("E25: duplex DATA+ACK piggybacking over the net runtime\n"
                "     (%llu x %zu B per direction, paced 1/%lld ms, %.0f%% loss,\n"
                "      deferral bound %lld ms, w=%llu, seed %llu, inproc)\n\n",
                static_cast<unsigned long long>(g_count), kPayload,
                static_cast<long long>(kPace / kMillisecond), kLoss * 100,
                static_cast<long long>(kPbDelay / kMillisecond),
                static_cast<unsigned long long>(kWindow),
                static_cast<unsigned long long>(kSeed));

    // ---- gated rows: paced bidirectional load, deterministic ----------
    const DuplexRun on = run_duplex(/*piggyback=*/true, net::NetMode::Inproc);
    const DuplexRun off = run_duplex(/*piggyback=*/false, net::NetMode::Inproc);
    const net::NetReport oneway_a = run_oneway(kSeed);
    const net::NetReport oneway_b = run_oneway(kSeed + 1);

    const std::uint64_t dgrams_duplex = total_datagrams(on.report);
    const std::uint64_t dgrams_two_oneway =
        total_datagrams(oneway_a) + total_datagrams(oneway_b);
    const double savings =
        dgrams_two_oneway > 0
            ? 1.0 - static_cast<double>(dgrams_duplex) / static_cast<double>(dgrams_two_oneway)
            : 0.0;

    workload::Table table{{"configuration", "datagrams", "piggybacked", "retx",
                           "virtual ms", "corrupt"}};
    auto add_row = [&table](const char* name, const net::NetReport& r) {
        table.add_row({name, std::to_string(total_datagrams(r)), ratio_cell(r),
                       std::to_string(r.metrics.data_retx),
                       workload::fmt(to_seconds(r.elapsed) * 1e3, 1),
                       std::to_string(r.payload_mismatches)});
    };
    add_row("duplex, piggyback on", on.report);
    add_row("duplex, piggyback off", off.report);
    add_row("one-way session x1 (fwd)", oneway_a);
    add_row("one-way session x1 (rev)", oneway_b);
    table.print("E25: paced bidirectional load (both directions, same bytes)");

    std::printf("\nduplex vs two one-way sessions: %llu vs %llu datagrams "
                "(%.1f%% saved)\n",
                static_cast<unsigned long long>(dgrams_duplex),
                static_cast<unsigned long long>(dgrams_two_oneway), savings * 100);
    std::printf("steady-state allocations: %llu over %llu datagrams "
                "(%.6f allocs/dgram)\n",
                static_cast<unsigned long long>(on.steady_allocs),
                static_cast<unsigned long long>(on.steady_dgrams),
                on.steady_allocs_per_dgram);

    // ---- determinism: the headline run replays byte-identically -------
    const DuplexRun replay = run_duplex(/*piggyback=*/true, net::NetMode::Inproc);
    const bool replays = on.report.completed && replay.report.completed &&
                         on.report.piggybacked == replay.report.piggybacked &&
                         on.report.standalone_acks == replay.report.standalone_acks &&
                         on.report.bytes_delivered == replay.report.bytes_delivered &&
                         on.report.reverse_bytes_delivered ==
                             replay.report.reverse_bytes_delivered &&
                         on.report.elapsed == replay.report.elapsed &&
                         total_datagrams(on.report) == total_datagrams(replay.report);
    std::printf("replay (same seed): %s\n", replays ? "IDENTICAL" : "DIVERGED");

    // ---- honesty rows: closed-loop bulk, where deferral cannot win ----
    {
        net::NetConfig bulk = config(/*duplex=*/true, /*piggyback=*/true);
        bulk.arrival_interval = 0;
        net::BaNetEngine engine(bulk, {}, net::NetMode::Inproc);
        const net::NetReport r = engine.run();
        std::printf("\nbulk closed-loop duplex (ungated): %s, %s piggybacked\n"
                    "(window-clocked reverse DATA only moves when acks arrive, and the\n"
                    " acks are what is deferred -- bulk ratios stay low by construction)\n",
                    r.completed ? "completed" : "INCOMPLETE", ratio_cell(r).c_str());
    }

    // ---- wall-clock UDP row (full runs only; numbers machine-local) ---
    bool udp_ok = true;
    if (!quick) {
        const DuplexRun udp = run_duplex(/*piggyback=*/true, net::NetMode::Udp);
        udp_ok = udp.report.completed && udp.report.payload_mismatches == 0;
        std::printf("\nUDP loopback duplex: %s, %s piggybacked, %.1f Mbit/s forward\n",
                    udp.report.completed ? "completed" : "INCOMPLETE",
                    ratio_cell(udp.report).c_str(), udp.report.goodput_mbps());
    }

    // ---- gates --------------------------------------------------------
    bool ok = true;
    auto gate = [&ok](bool pass, const char* what) {
        std::printf("gate: %-44s %s\n", what, pass ? "ok" : "MISS");
        ok &= pass;
    };
    std::printf("\n");
    gate(on.report.completed && off.report.completed && oneway_a.completed &&
             oneway_b.completed,
         "all transfers completed");
    gate(on.report.payload_mismatches == 0 && off.report.payload_mismatches == 0,
         "zero corrupt payloads");
    gate(on.report.piggyback_ratio() >= 0.5, "piggyback ratio >= 50%");
    gate(dgrams_duplex < dgrams_two_oneway, "duplex datagrams < two one-way sessions");
    gate(replays, "deterministic replay");
    gate(udp_ok, "UDP duplex row completed");
    if (check_budget >= 0) {
        gate(on.steady_allocs_per_dgram <= check_budget,
             "steady allocs/dgram within budget");
    }

    bench::BenchOutput out("e25_duplex");
    out.meta("count_per_direction", bench::Json::num(static_cast<std::uint64_t>(g_count)))
        .meta("payload_bytes", bench::Json::num(static_cast<std::uint64_t>(kPayload)))
        .meta("loss", bench::Json::num(kLoss))
        .meta("seed", bench::Json::num(kSeed))
        .meta("pace_us", bench::Json::num(static_cast<std::uint64_t>(kPace / kMicrosecond)))
        .meta("piggyback_delay_ms",
              bench::Json::num(static_cast<std::uint64_t>(kPbDelay / kMillisecond)))
        .meta("quick", bench::Json::boolean(quick))
        .meta("piggyback_ratio", bench::Json::num(on.report.piggyback_ratio()))
        .meta("piggybacked", bench::Json::num(on.report.piggybacked))
        .meta("standalone_acks", bench::Json::num(on.report.standalone_acks))
        .meta("datagrams_duplex", bench::Json::num(dgrams_duplex))
        .meta("datagrams_two_oneway", bench::Json::num(dgrams_two_oneway))
        .meta("datagram_savings", bench::Json::num(savings))
        .meta("steady_allocs_per_dgram", bench::Json::num(on.steady_allocs_per_dgram))
        .meta("replay_identical", bench::Json::boolean(replays))
        .add_table("paced bidirectional load", table);
    if (!out.write()) std::printf("warning: could not write BENCH_e25 output files\n");

    std::printf("\nMachine-readable copies: BENCH_e25_duplex.{json,csv}\n");
    return ok ? 0 : 1;
}
