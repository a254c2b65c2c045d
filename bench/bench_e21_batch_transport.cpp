// E21 -- batch transport API: syscall amortization and allocation budget.
//
// E19 shows the batch path end to end through the protocol engines; this
// bench isolates net::Transport itself.  Two questions:
//
//   1. What does sendmmsg/recvmmsg amortization buy at the socket
//      boundary?  An offered-load sweep blasts a fixed byte volume over
//      loopback UDP through two shapes of the same traffic: a
//      batch-of-one (send_batch/recv_batch driven one datagram at a
//      time -- what the late single-shot shims cost before they were
//      removed) and send_batch/recv_batch at burst 8..128.  Reported per
//      point: goodput, datagrams per syscall, allocations.  The headline
//      compares the best batched mmsg point against the batch-of-one.
//
//   2. Does the zero-alloc receive claim hold?  The steady-state half of
//      each blast runs under the counting allocator hook (same hook as
//      E20): after RecvBatch slabs, send scratch, and the inproc free
//      list reach their high-water marks, allocations per received
//      datagram must be exactly 0 on both transports.  That figure is
//      the CI gate (--check-budget), stable on shared runners where
//      wall-clock numbers are not.
//
//   3. What does the kernel offload tier add on top of batching?  The
//      UDP sweep runs as a two-tier ladder over the same bursts: the
//      portable sendmmsg/recvmmsg baseline and GSO+GRO (one 64 KiB
//      super-datagram per syscall each way).  A tier the running kernel
//      cannot do is reported as the tier it fell back to, never skipped
//      silently.  The headline compares the best point of each achieved
//      tier.
//
//   --quick            smaller blast (CI smoke; same gate)
//   --check-budget X   exit nonzero when steady-state allocs per received
//                      datagram exceeds X on any transport
//   --check-ladder     exit nonzero when the achieved GSO tier's best
//                      goodput falls below the mmsg baseline; soft-skips
//                      (exit 0, says so) when the kernel lacks GSO+GRO

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "json_out.hpp"
#include "net/offload.hpp"
#include "net/transport.hpp"
#include "workload/report.hpp"

// ---- the bench -------------------------------------------------------------

using namespace bacp;
using namespace bacp::net;

namespace {

constexpr std::size_t kPayload = 512;  // small enough that syscall cost matters

std::size_t g_datagrams = 400000;  // per measured point (~200 MB offered)

double now_sec() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct BlastResult {
    std::size_t sent = 0;
    std::size_t received = 0;
    double wall_sec = 0;
    std::uint64_t allocs_steady = 0;     // second half of the blast
    std::uint64_t received_steady = 0;
    Metrics tx;  // sender-side transport counters for the blast
    Metrics rx;

    double goodput_mbps() const {
        if (wall_sec <= 0) return 0;
        return static_cast<double>(received) * kPayload * 8.0 / wall_sec / 1e6;
    }
    double dgrams_per_syscall() const {
        const std::uint64_t syscalls = tx.syscalls_sent + rx.syscalls_received;
        if (syscalls == 0) return 0;
        return static_cast<double>(tx.datagrams_sent + rx.datagrams_received) /
               static_cast<double>(syscalls);
    }
    double steady_allocs_per_datagram() const {
        if (received_steady == 0) return 0;
        return static_cast<double>(allocs_steady) / static_cast<double>(received_steady);
    }
};

/// Moves g_datagrams of kPayload bytes from \p tx to \p rx in bursts,
/// alternating one send sweep with a full drain (loopback delivery is
/// synchronous, so nothing is in flight across iterations).  Burst 1 is
/// the batch-of-one shim: one datagram per send_batch, drained through a
/// capacity-1 arena.
BlastResult blast(Transport& tx, Transport& rx, std::size_t burst) {
    BlastResult out;
    const Metrics tx_before = tx.stats();
    const Metrics rx_before = rx.stats();

    std::vector<std::uint8_t> payload(kPayload);
    for (std::size_t i = 0; i < kPayload; ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    std::vector<std::span<const std::uint8_t>> spans(burst, std::span(payload));
    RecvBatch batch(burst, kMaxDatagram);

    const std::size_t half = g_datagrams / 2;
    std::uint64_t allocs_at_half = 0;
    std::size_t received_at_half = 0;

    const double start = now_sec();
    while (out.sent < g_datagrams) {
        const std::size_t chunk = std::min(burst, g_datagrams - out.sent);
        tx.send_batch(std::span(spans.data(), chunk));
        out.sent += chunk;
        while (rx.recv_batch(batch) > 0) out.received += batch.size();
        if (allocs_at_half == 0 && out.sent >= half) {
            allocs_at_half = bench::allocs_now();
            received_at_half = out.received;
        }
    }
    out.wall_sec = now_sec() - start;
    out.allocs_steady = bench::allocs_now() - allocs_at_half;
    out.received_steady = out.received - received_at_half;

    // Per-blast deltas: the same pair serves several sweep points.
    out.tx = tx.stats();
    out.rx = rx.stats();
    out.tx.datagrams_sent -= tx_before.datagrams_sent;
    out.tx.syscalls_sent -= tx_before.syscalls_sent;
    out.tx.bytes_sent -= tx_before.bytes_sent;
    out.tx.send_drops -= tx_before.send_drops;
    out.tx.gso_sends -= tx_before.gso_sends;
    out.tx.gso_segments -= tx_before.gso_segments;
    out.rx.datagrams_received -= rx_before.datagrams_received;
    out.rx.syscalls_received -= rx_before.syscalls_received;
    out.rx.bytes_received -= rx_before.bytes_received;
    out.rx.gro_recvs -= rx_before.gro_recvs;
    out.rx.gro_segments -= rx_before.gro_segments;
    return out;
}

/// Best-of-N wrapper: the fastest repetition is the one least disturbed
/// by scheduler noise on a shared box, and the one the counters describe
/// (syscall ratios are identical across reps; only wall time moves).
BlastResult best_blast(Transport& tx, Transport& rx, std::size_t burst, int reps) {
    BlastResult best = blast(tx, rx, burst);
    for (int r = 1; r < reps; ++r) {
        BlastResult cand = blast(tx, rx, burst);
        if (cand.goodput_mbps() > best.goodput_mbps()) best = cand;
    }
    return best;
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool check_ladder = false;
    double budget = -1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check-budget") == 0 && i + 1 < argc) {
            budget = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--check-ladder") == 0) {
            check_ladder = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--check-budget X] [--check-ladder]\n",
                         argv[0]);
            return 2;
        }
    }
    if (quick) g_datagrams = 40000;

    const OffloadCaps caps = offload_caps();
    std::printf("E21: batch transport blast, %zu x %zu B per point\n"
                "     (loopback UDP + inproc; shim = the batch API one datagram\n"
                "      at a time)\n"
                "     kernel offload caps: gso=%d gro=%d\n\n",
                g_datagrams, kPayload, caps.gso ? 1 : 0, caps.gro ? 1 : 0);

    workload::Table table({"mode", "tier", "burst", "goodput", "dgram/syscall",
                           "delivered", "steady allocs/dgram"});
    bench::Json points = bench::Json::array();
    bool over_budget = false;
    double udp_shim_goodput = 0;
    // Best goodput / syscall ratio / alloc figure per *achieved* tier
    // (a requested tier the kernel lacks lands on its fallback's row).
    struct TierBest {
        double goodput = 0;
        double ratio = 0;
        double allocs = 0;
        bool ran = false;
    };
    TierBest tier_best[2];

    auto record = [&](const char* name, OffloadMode tier, std::size_t burst,
                      const BlastResult& r) {
        const double delivered =
            static_cast<double>(r.received) / static_cast<double>(g_datagrams);
        table.add_row({name, offload_mode_name(tier), std::to_string(burst),
                       workload::fmt(r.goodput_mbps(), 0) + " Mbit/s",
                       workload::fmt(r.dgrams_per_syscall(), 2),
                       workload::fmt(delivered * 100, 1) + "%",
                       workload::fmt(r.steady_allocs_per_datagram(), 6)});
        points.push(bench::Json::object()
                        .set("mode", bench::Json::str(name))
                        .set("tier", bench::Json::str(offload_mode_name(tier)))
                        .set("burst", bench::Json::num(static_cast<std::uint64_t>(burst)))
                        .set("goodput_mbps", bench::Json::num(r.goodput_mbps()))
                        .set("dgrams_per_syscall", bench::Json::num(r.dgrams_per_syscall()))
                        .set("received", bench::Json::num(static_cast<std::uint64_t>(r.received)))
                        .set("steady_allocs_per_datagram",
                             bench::Json::num(r.steady_allocs_per_datagram()))
                        .set("tx", bench::counters_json(r.tx))
                        .set("rx", bench::counters_json(r.rx)));
        // The gate covers only the batch path: the burst-1 rows are the
        // baseline it is measured against.
        if (budget >= 0 && burst > 1 && r.steady_allocs_per_datagram() > budget) {
            over_budget = true;
        }
    };

    const int reps = quick ? 1 : 3;

    {
        auto [a, b] = UdpTransport::make_pair();
        const BlastResult shim = best_blast(*a, *b, 1, reps);
        record("udp shim", OffloadMode::Mmsg, 1, shim);
        udp_shim_goodput = shim.goodput_mbps();
    }
    // The offload ladder: a fresh socket pair per requested tier (offload
    // state is sticky -- a demoted transport stays demoted by design).
    for (const OffloadMode mode : {OffloadMode::Mmsg, OffloadMode::Gso}) {
        auto [a, b] = UdpTransport::make_pair();
        a->enable_offload(mode);
        b->enable_offload(mode);
        const std::string name =
            std::string("udp ") + offload_mode_name(mode);
        for (const std::size_t burst : {std::size_t{8}, std::size_t{32},
                                        std::size_t{128}}) {
            const BlastResult r = best_blast(*a, *b, burst, reps);
            // What actually ran, after any demotion.
            const OffloadMode tier = b->offload_tier();
            record(name.c_str(), tier, burst, r);
            TierBest& best = tier_best[static_cast<int>(tier)];
            best.ran = true;
            if (r.goodput_mbps() > best.goodput) {
                best.goodput = r.goodput_mbps();
                best.ratio = r.dgrams_per_syscall();
                best.allocs = r.steady_allocs_per_datagram();
            }
        }
        if (mode == OffloadMode::Mmsg) continue;  // baseline, never demoted
        if (b->offload_tier() != mode) {
            std::printf("note: requested tier %s not available on this kernel; "
                        "ran as %s\n",
                        offload_mode_name(mode), offload_mode_name(b->offload_tier()));
        }
    }
    {
        auto [a, b] = InprocTransport::make_pair(/*capacity=*/256);
        record("inproc shim", OffloadMode::Mmsg, 1, best_blast(*a, *b, 1, reps));
        record("inproc batched", OffloadMode::Mmsg, 32,
               best_blast(*a, *b, 32, reps));
    }

    table.print("E21: offered-load sweep, offload ladder vs batch-of-one");

    const TierBest& mmsg = tier_best[static_cast<int>(OffloadMode::Mmsg)];
    const TierBest& gso = tier_best[static_cast<int>(OffloadMode::Gso)];
    const double mmsg_vs_shim = udp_shim_goodput > 0 ? mmsg.goodput / udp_shim_goodput : 0;
    const double gso_vs_mmsg = (gso.ran && mmsg.goodput > 0) ? gso.goodput / mmsg.goodput : 0;
    std::printf("\nudp best per tier:\n");
    std::printf("  mmsg: %.0f Mbit/s, %.2f dgrams/syscall, %.2fx over batch-of-one, "
                "%.6f steady allocs/dgram\n",
                mmsg.goodput, mmsg.ratio, mmsg_vs_shim, mmsg.allocs);
    if (gso.ran) {
        std::printf("  gso : %.0f Mbit/s, %.2f dgrams/syscall, %.2fx over mmsg, "
                    "%.6f steady allocs/dgram\n",
                    gso.goodput, gso.ratio, gso_vs_mmsg, gso.allocs);
    }

    bench::BenchOutput out("e21_batch_transport");
    out.meta("datagrams_per_point", bench::Json::num(static_cast<std::uint64_t>(g_datagrams)))
        .meta("payload_bytes", bench::Json::num(static_cast<std::uint64_t>(kPayload)))
        .meta("quick", bench::Json::boolean(quick))
        .meta("caps", bench::Json::object()
                          .set("gso", bench::Json::boolean(caps.gso))
                          .set("gro", bench::Json::boolean(caps.gro)))
        .meta("mmsg_vs_shim", bench::Json::num(mmsg_vs_shim))
        .meta("gso_vs_mmsg", bench::Json::num(gso_vs_mmsg))
        .meta("points", std::move(points))
        .add_table("offered-load sweep", table);
    if (!out.write()) std::printf("warning: could not write BENCH_e21 output files\n");

    int rc = 0;
    if (budget >= 0) {
        std::printf("budget gate: steady allocs/dgram <= %g: %s\n", budget,
                    over_budget ? "FAIL" : "ok");
        if (over_budget) rc = 1;
    }
    if (check_ladder) {
        if (!gso.ran) {
            std::printf("ladder gate: GSO+GRO tier unavailable on this kernel -- "
                        "skipped\n");
        } else if (gso_vs_mmsg < 1.0) {
            std::printf("ladder gate: gso best %.0f Mbit/s < mmsg best %.0f Mbit/s: "
                        "FAIL\n",
                        gso.goodput, mmsg.goodput);
            rc = 1;
        } else {
            std::printf("ladder gate: gso %.2fx mmsg (>= 1.0x): ok\n", gso_vs_mmsg);
        }
    }
    std::printf("Machine-readable copies: BENCH_e21_batch_transport.{json,csv}\n");
    return rc;
}
