#pragma once

// Benchmark-side instruments: nothing here lives in the program under
// test.  The benchmark reaches each layer only through its public API, and
// these pieces observe it from outside:
//
//   Proc          getrusage + /proc/self/statm snapshots at phase
//                 boundaries (CPU, page faults, resident memory);
//   Spans         an in-memory span recorder (name, start, end, parent,
//                 run id) with exact self-time accounting per name;
//   Tap           a timing decorator for a UdpTransport, forwarding fd(),
//                 offload_tier() and flush() so offload selection and
//                 waits behave exactly as they do without it;
//   Waiter        the one wait of every net loop: net::wait_readable on
//                 every socket the loop owns, up to the earliest deadline;
//   Window        the timed window, cut into equal slices whose medians
//                 are the reported end-to-end figures;
//   Result        what one workload process reports.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "net/clock.hpp"
#include "net/transport.hpp"

namespace perfbench {

using bacp::Seq;
using bacp::SimTime;

/// Heap allocations made by this process so far (counting operator new,
/// defined in main.cpp).
std::uint64_t allocs_now();

/// Nanoseconds of std::chrono::steady_clock.
SimTime mono_ns();

// ---- process snapshots -------------------------------------------------

struct Proc {
    double cpu_us = 0;           // user + system, exact
    double sampled_user_us = 0;  // getrusage's tick-sampled split
    double sampled_sys_us = 0;
    std::uint64_t minflt = 0;

    static Proc now();
};

/// Resident set size in KiB, from /proc/self/statm.
double rss_kib();
/// Peak resident set size of this process in MiB (getrusage).
double peak_rss_mib();

// ---- spans -------------------------------------------------------------

/// The layer boundaries the benchmark times.  Self time of a name is its
/// spans' duration minus the part covered by their child spans.
enum class Span : std::uint8_t {
    TransportSend,
    TransportRecv,
    EndpointPoll,     // NetEndpoint::poll and NetEndpoint::release
    ServerPoll,       // Server::poll_shard
    FleetPoll,        // ClientFleet::poll
    Wait,             // net::wait_readable
    SimRun,           // sim::Simulator::run_until
    LinkSend,         // link::StreamMux::send
    BenchObserve,     // the benchmark's own checks and latency taps
    kCount,
};

const char* span_name(Span s);

class Spans {
public:
    struct Record {
        std::uint32_t id;
        std::uint32_t parent;  // 0 = top level
        Span name;
        SimTime start;
        SimTime end;
    };

    struct Total {
        SimTime total_ns = 0;
        SimTime self_ns = 0;
        std::uint64_t calls = 0;
    };

    /// Tracing on: spans are recorded.  Off: begin/end cost one branch.
    void enable(std::uint64_t run_id, std::size_t keep_records);
    bool enabled() const { return enabled_; }

    /// Totals and records accumulate only while counting (the timed
    /// window); spans still nest correctly outside it.
    void set_counting(bool on) { counting_ = on; }

    void begin(Span name) {
        if (!enabled_) return;
        Open& o = stack_[depth_++];
        o.name = name;
        o.id = ++next_id_;
        o.parent = depth_ > 1 ? stack_[depth_ - 2].id : 0;
        o.child_ns = 0;
        o.start = mono_ns();
    }

    void end() {
        if (!enabled_) return;
        const SimTime t = mono_ns();
        const Open& o = stack_[--depth_];
        const SimTime dur = t - o.start;
        if (depth_ > 0) stack_[depth_ - 1].child_ns += dur;
        if (!counting_) return;
        Total& tot = totals_[static_cast<std::size_t>(o.name)];
        tot.total_ns += dur;
        tot.self_ns += dur - o.child_ns;
        ++tot.calls;
        if (records_.size() < records_.capacity()) {
            records_.push_back({o.id, o.parent, o.name, o.start, t});
        }
    }

    const Total& total(Span s) const { return totals_[static_cast<std::size_t>(s)]; }
    std::uint64_t recorded() const { return records_.size(); }

    /// Writes every kept record as CSV (run_id,id,parent,name,start_ns,
    /// end_ns).  Returns false when the file cannot be written.
    bool write_csv(const std::string& path) const;

private:
    struct Open {
        Span name;
        std::uint32_t id;
        std::uint32_t parent;
        SimTime start;
        SimTime child_ns;
    };

    bool enabled_ = false;
    bool counting_ = false;
    std::uint64_t run_id_ = 0;
    std::uint32_t next_id_ = 0;
    int depth_ = 0;
    std::array<Open, 16> stack_{};
    std::array<Total, static_cast<std::size_t>(Span::kCount)> totals_{};
    std::vector<Record> records_;
};

/// The process's one recorder (the benchmark is single-threaded).
Spans& spans();

class SpanScope {
public:
    explicit SpanScope(Span name) { spans().begin(name); }
    ~SpanScope() { spans().end(); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
};

// ---- transport tap -----------------------------------------------------

/// Sees every datagram crossing a Tap, after the inner call returns.
class TapObserver {
public:
    virtual ~TapObserver() = default;
    virtual void on_sent(std::span<const std::span<const std::uint8_t>> datagrams) = 0;
    virtual void on_received(const bacp::net::RecvBatch& batch) = 0;
};

/// Timing and counting decorator around one UdpTransport.  Its stats()
/// mirror the inner socket's after every call, so a Server or
/// ClientFleet reading transport counters sees what it would see
/// without the tap.
class Tap final : public bacp::net::AddressedTransport {
public:
    struct Counts {
        std::uint64_t send_calls = 0;
        std::uint64_t sent = 0;
        std::uint64_t recv_calls = 0;
        std::uint64_t received = 0;
        std::uint64_t empty_recvs = 0;
        std::uint64_t bytes_sent = 0;
    };

    explicit Tap(bacp::net::UdpTransport& inner, TapObserver* observer = nullptr)
        : inner_(&inner), observer_(observer) {}

    std::size_t send_batch(std::span<const std::span<const std::uint8_t>> datagrams) override;
    std::size_t send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                              std::span<const bacp::net::PeerAddr> peers) override;
    std::size_t recv_batch(bacp::net::RecvBatch& batch) override;
    void flush() override { inner_->flush(); }
    int fd() const override { return inner_->fd(); }
    bacp::net::OffloadMode offload_tier() const override { return inner_->offload_tier(); }

    const Counts& counts() const { return counts_; }

private:
    void count_sent(std::span<const std::span<const std::uint8_t>> datagrams, std::size_t n);

    bacp::net::UdpTransport* inner_;
    TapObserver* observer_;
    Counts counts_;
};

Tap::Counts sum_counts(std::span<Tap* const> taps);

/// Field-wise a - b: the counts of a window between two snapshots.
inline Tap::Counts operator-(Tap::Counts a, const Tap::Counts& b) {
    a.send_calls -= b.send_calls;
    a.sent -= b.sent;
    a.recv_calls -= b.recv_calls;
    a.received -= b.received;
    a.empty_recvs -= b.empty_recvs;
    a.bytes_sent -= b.bytes_sent;
    return a;
}

// ---- waiting -----------------------------------------------------------

/// The only way a net loop idles: block in net::wait_readable on every
/// socket the loop owns until the earliest deadline it knows.  Never a
/// fixed sleep, never a spin (a deadline already due returns at once
/// without a system call).
class Waiter {
public:
    explicit Waiter(std::vector<Tap*> taps, bacp::net::Clock& clock);

    /// Waits until a socket is readable or \p deadline (clock time).
    void wait_until(SimTime deadline);

    /// Starts counting waits into the window statistics.
    void set_counting(bool on) { counting_ = on; }

    std::uint64_t waits() const { return waits_; }
    SimTime wait_ns() const { return wait_ns_; }
    /// How far past the requested deadline each timeout wake returned.
    const std::vector<SimTime>& oversleep_ns() const { return oversleep_; }

private:
    std::vector<Tap*> taps_;
    std::vector<int> fds_;
    bacp::net::Clock* clock_;
    bool counting_ = false;
    std::uint64_t waits_ = 0;
    SimTime wait_ns_ = 0;
    std::vector<SimTime> oversleep_;
};

// ---- the timed window --------------------------------------------------

/// Slices of a timed window of \p seconds: \p per_second a second, 10
/// to 80.  Short slices keep a millisecond stall of the virtual CPU (a
/// few a second on a shared host) out of most slices, so the median over
/// slices does not see it.
inline int slice_count(double seconds, int per_second = 8) {
    const int n = static_cast<int>(seconds * per_second);
    return n < 10 ? 10 : (n > 80 ? 80 : n);
}

/// Exact order statistic (q in [0,1]) of \p v; reorders \p v.  0 if empty.
double quantile(std::vector<SimTime>& v, double q);
double median(std::vector<double> v);

/// The timed window, cut into equal slices.  The loop calls mark() at
/// each slice boundary; every end-to-end figure is computed per slice and
/// reported as the median over slices, so a stall imposed from outside
/// (a virtual CPU descheduled for milliseconds) that spoils a few slices
/// does not move the result.  Latency percentiles are exact order
/// statistics of each slice's samples, appended with sample() and split
/// at the marks afterwards (nothing is sorted inside the window).
class Window {
public:
    Window(int slices, SimTime slice_ns, std::size_t expected_samples);

    void start(SimTime now, std::uint64_t msgs, std::uint64_t bytes);
    /// Records a slice boundary; returns true once the last slice closed.
    bool mark(SimTime now, std::uint64_t msgs, std::uint64_t bytes);
    SimTime next_mark() const { return next_mark_; }
    bool open() const { return open_; }
    /// Ends the window early at \p now (the fixed work ran out); the
    /// partial last slice is kept only if it covers half a slice.
    void close_early(SimTime now, std::uint64_t msgs, std::uint64_t bytes);

    void sample(SimTime latency_ns) {
        if (open_) samples_.push_back(latency_ns);
    }

    struct Figures {
        double goodput_mbps = 0;
        double latency_p50_us = 0;
        double latency_p95_us = 0;
        double cpu_us_per_msg = 0;
        int slices = 0;
        std::uint64_t samples = 0;
        std::uint64_t min_slice_samples = 0;
        std::uint64_t msgs = 0;          // delivered inside the window
        std::uint64_t bytes = 0;
        SimTime wall_ns = 0;
        double cpu_us = 0;
        double sys_share = 0;  // system / (user + system)
        std::uint64_t minflt = 0;
    };

    /// Per-slice figures reduced by median.
    Figures figures();

private:
    struct Mark {
        SimTime t;
        std::uint64_t msgs;
        std::uint64_t bytes;
        Proc proc;
        std::size_t sample_index;  // samples_.size() at the mark
    };

    int slices_;
    SimTime slice_ns_;
    SimTime next_mark_ = 0;
    bool open_ = false;
    std::vector<Mark> marks_;
    std::vector<SimTime> samples_;
};

// ---- results -----------------------------------------------------------

struct Result {
    std::string workload;
    std::uint64_t attempted = 0;  // messages offered
    std::uint64_t failed = 0;     // messages not delivered exactly once, in order, intact
    std::vector<std::string> failures;
    double setup_s = 0;
    std::vector<std::pair<std::string, double>> e2e;
    std::vector<std::pair<std::string, double>> layers;
    std::vector<std::pair<std::string, std::string>> info;

    bool correct() const { return failures.empty() && failed == 0; }

    /// Records a failed check (the run is then incorrect).
    void check(bool ok, const std::string& what) {
        if (!ok) failures.push_back(what);
    }

    void e2e_from(const Window::Figures& f, double wire_ratio, double setup_seconds);
    void layer(const std::string& name, double value) { layers.emplace_back(name, value); }
    void note(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
    void note(const std::string& key, double value);

    /// One JSON object on one line.
    std::string to_json() const;
};

/// Safe ratio: 0 when the base is 0.
inline double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Options every workload receives.
struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setup_only = false;
    std::string trace_out;  // span CSV path ("" = do not write)
};

/// Per-layer figures every net workload reports the same way.
struct NetLayerInputs {
    const Window::Figures* fig = nullptr;
    const Waiter* waiter = nullptr;
    Tap::Counts taps;               // window deltas, all taps
    std::uint64_t kernel_drops = 0; // whole run, unimpaired sockets
    std::uint64_t timers_fired = 0; // window deltas, all wheels
    std::uint64_t fire_work = 0;
    std::uint64_t allocs = 0;       // window delta
};

/// Fills transport.*, wait.*, wheel.*, alloc.*, proc.* and trace.* rows.
void add_net_layers(Result& r, const NetLayerInputs& in);

}  // namespace perfbench
