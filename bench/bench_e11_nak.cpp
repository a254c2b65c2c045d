// E11 (extension ablation) -- NAK fast retransmit.
//
// The receiver can tell the sender exactly which message blocks delivery
// (the "(i < nr || !rcvd[i])" conjunct of timeout(i), receiver-supplied).
// It NAKs the message at vr only once a higher message has been held for
// the data lifetime L, which proves the first copy lost on a reordering
// channel; a sender that honors NAKs then recovers the loss about one
// round trip after that proof instead of a conservative timeout.  Reorder
// alone provokes no NAK, so NAK resends stay below the frames the channel
// dropped.
//
// Series: p50/p99 delivery latency and throughput vs loss rate, NAK on
// vs off, w = 16.
//
//   $ bench_e11_nak            # print the table
//   $ bench_e11_nak --check    # also exit 1 if, at any loss rate, NAK-on
//                              # resends exceed the dropped data frames
//                              # or NAK-on p99 exceeds NAK-off p99

#include <cstdio>
#include <cstring>

#include "workload/report.hpp"
#include "workload/scenario.hpp"

using namespace bacp;
using workload::Protocol;
using workload::Scenario;

namespace {

struct Row {
    double thr = 0, p50 = 0, p99 = 0, naks = 0, fast = 0, dropped = 0;
};

Row run_one(double loss, bool nak) {
    Scenario s;
    s.protocol = Protocol::BlockAck;
    s.w = 16;
    s.count = 3000;
    s.loss = loss;
    s.enable_nak = nak;
    s.seed = 13;
    const auto r = workload::run_scenario(s);
    Row row;
    row.thr = r.metrics.throughput_msgs_per_sec();
    row.p50 = to_seconds(r.metrics.latency.quantile(0.5)) * 1e3;
    row.p99 = to_seconds(r.metrics.latency.quantile(0.99)) * 1e3;
    row.naks = static_cast<double>(r.metrics.naks_sent);
    row.fast = static_cast<double>(r.metrics.fast_retx);
    row.dropped = static_cast<double>(r.metrics.sr_dropped);
    return row;
}

}  // namespace

int main(int argc, char** argv) {
    const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
    if (argc > 2 || (argc == 2 && !check)) {
        std::fprintf(stderr, "usage: %s [--check]\n", argv[0]);
        return 2;
    }
    std::printf("E11: NAK fast retransmit (w=16, 3000 msgs, 4-6 ms reordering links)\n");
    workload::Table table({"loss", "p99 lat (off)", "p99 lat (NAK)", "p99 gain",
                           "thr (off)", "thr (NAK)", "naks", "fast retx", "dropped"});
    int failures = 0;
    for (const double loss : {0.01, 0.02, 0.05, 0.10, 0.20}) {
        const Row off = run_one(loss, false);
        const Row on = run_one(loss, true);
        table.add_row({workload::fmt(loss * 100, 0) + "%", workload::fmt(off.p99, 1) + " ms",
                       workload::fmt(on.p99, 1) + " ms",
                       workload::fmt(off.p99 / on.p99, 2) + "x", workload::fmt(off.thr, 1),
                       workload::fmt(on.thr, 1), workload::fmt(on.naks, 0),
                       workload::fmt(on.fast, 0), workload::fmt(on.dropped, 0)});
        if (on.fast > on.dropped) {
            std::fprintf(stderr, "E11 check: %.0f%% loss: %.0f NAK resends for %.0f dropped frames\n",
                         loss * 100, on.fast, on.dropped);
            ++failures;
        }
        if (on.p99 > off.p99) {
            std::fprintf(stderr, "E11 check: %.0f%% loss: NAK-on p99 %.1f ms > NAK-off %.1f ms\n",
                         loss * 100, on.p99, off.p99);
            ++failures;
        }
    }
    table.print("E11: tail latency with and without NAKs");
    std::printf("\nExpected shape: p99 latency drops by roughly the ratio of the\n"
                "conservative timeout to one round trip; throughput improves modestly\n"
                "(retransmissions start sooner, so the window unblocks sooner).\n");
    return check && failures > 0 ? 1 : 0;
}
