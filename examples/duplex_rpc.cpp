// duplex_rpc: request/response traffic over one full-duplex session.
//
// A client sends requests A->B; the server answers B->A.  Block
// acknowledgments for each direction ride on the other direction's data
// (DATA+ACK piggybacking), so a healthy RPC exchange spends almost no
// standalone ack frames.  The run reports RPC round-trip percentiles and
// the frame economy, under loss.
//
//   $ ./duplex_rpc [loss]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/histogram.hpp"
#include "link/duplex_session.hpp"

using namespace bacp;
using namespace bacp::literals;

int main(int argc, char** argv) {
    const double loss = argc > 1 ? std::atof(argv[1]) : 0.05;
    constexpr Seq kRequests = 2000;

    link::DuplexConfig cfg;
    cfg.w = 16;
    cfg.count_a_to_b = kRequests;  // requests
    cfg.count_b_to_a = kRequests;  // responses
    cfg.piggyback = true;
    cfg.ab_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.ba_link = loss > 0 ? runtime::LinkSpec::lossy(loss) : runtime::LinkSpec::lossless();
    cfg.seed = 2026;
    link::DuplexSession session(cfg);
    const auto result = session.run();

    std::printf("duplex RPC: %llu requests + %llu responses over %.0f%%-lossy links\n",
                (unsigned long long)kRequests, (unsigned long long)kRequests, loss * 100);
    std::printf("  completed: %s\n", session.completed() ? "yes" : "NO");
    std::printf("  requests  (A->B): %s\n", result.a_to_b.summary().c_str());
    std::printf("  responses (B->A): %s\n", result.b_to_a.summary().c_str());
    const double delivered =
        static_cast<double>(result.a_to_b.delivered + result.b_to_a.delivered);
    std::printf("  frame economy: %.3f frames/message (%llu piggybacked acks, "
                "%llu standalone)\n",
                static_cast<double>(result.frames_ab + result.frames_ba) / delivered,
                (unsigned long long)result.piggybacked,
                (unsigned long long)result.standalone_acks);
    return session.completed() ? 0 : 1;
}
