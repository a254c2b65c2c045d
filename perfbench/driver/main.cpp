// perfbench_driver: runs ONE workload of the block-ack benchmark in this
// process and prints one JSON object on the last line of stdout.
//
//   perfbench_driver --workload bulk|duplex_lossy|fleet|des --seed N
//                    --seconds S [--trace] [--setup-only]
//                    [--trace-out spans.csv]
//
// perfbench/run.py is the user-facing command: it builds this binary,
// runs each workload in fresh processes and reduces their results.

#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "instruments.hpp"
#include "net/offload.hpp"
#include "workloads.hpp"

// ---- counting allocator hook (the E20-E25 scheme) --------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t perfbench::allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t size) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace perfbench;

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload bulk|duplex_lossy|fleet|des --seed N --seconds S "
                 "[--trace] [--setup-only] [--trace-out FILE]\n",
                 argv0);
}

/// Pins the process to the second CPU it may run on (the first when it
/// has only one): the loop is single-threaded, and staying on one CPU
/// keeps migrations and cold caches out of the latency tail.  Returns the
/// CPU, or -1 when affinity cannot be set.
int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
    int picked = -1;
    int seen = 0;
    for (int c = 0; c < CPU_SETSIZE && seen < 2; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            picked = c;
            ++seen;
        }
    }
    if (picked < 0) return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(picked, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? picked : -1;
}

void stamp(Result& r, const Args& args) {
    utsname u{};
    uname(&u);
    const bacp::net::OffloadCaps& caps = bacp::net::offload_caps();
    r.note("compiler", std::string("g++ ") + __VERSION__);
    r.note("kernel", std::string(u.sysname) + " " + u.release + " " + u.machine);
    r.note("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    r.note("offload_caps", std::string("gso=") + (caps.gso ? "1" : "0") +
                               " gro=" + (caps.gro ? "1" : "0") +
                               " uring=" + (caps.uring ? "1" : "0"));
    r.note("offload_auto_resolves_to",
           bacp::net::offload_mode_name(bacp::net::resolve_offload(bacp::net::OffloadMode::Auto)));
    r.note("seed", static_cast<double>(args.seed));
    r.note("seconds", args.seconds);
    r.note("traced", args.trace ? "1" : "0");
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace-out" && has_value) {
            args.trace_out = argv[++i];
        } else if (a == "--trace") {
            args.trace = true;
        } else if (a == "--setup-only") {
            args.setup_only = true;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (args.seconds <= 0 || args.seconds > 600) {
        usage(argv[0]);
        return 2;
    }
    if (args.trace) spans().enable(args.seed, std::size_t{1} << 18);
    const int cpu = pin_to_one_cpu();

    Result r;
    if (args.workload == "bulk") {
        r = run_bulk(args);
    } else if (args.workload == "duplex_lossy") {
        r = run_duplex_lossy(args);
    } else if (args.workload == "fleet") {
        r = run_fleet(args);
    } else if (args.workload == "des") {
        r = run_des(args);
    } else {
        usage(argv[0]);
        return 2;
    }
    if (!args.setup_only) {
        stamp(r, args);
        r.note("pinned_cpu", static_cast<double>(cpu));
        if (args.trace && !args.trace_out.empty() && !spans().write_csv(args.trace_out)) {
            r.note("trace_out_error", "could not write " + args.trace_out);
        }
    }
    std::printf("%s\n", r.to_json().c_str());
    return r.correct() ? 0 : 1;
}
