#include "instruments.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

SimTime mono_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Proc Proc::now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // The process CPU clock counts exact run time; getrusage's user/system
    // split is sampled at timer ticks, which alias with a loop that sleeps
    // in 1 ms steps, so it serves only the system share.
    timespec cpu{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
    const auto us = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
    };
    Proc p;
    p.cpu_us = static_cast<double>(cpu.tv_sec) * 1e6 + static_cast<double>(cpu.tv_nsec) / 1e3;
    p.sampled_user_us = us(ru.ru_utime);
    p.sampled_sys_us = us(ru.ru_stime);
    p.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    return p;
}

double rss_kib() {
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0;
    unsigned long size = 0;
    unsigned long resident = 0;
    const int got = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (got != 2) return 0;
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- spans -------------------------------------------------------------

const char* span_name(Span s) {
    switch (s) {
        case Span::TransportSend: return "transport.send";
        case Span::TransportRecv: return "transport.recv";
        case Span::EndpointPoll: return "endpoint";
        case Span::ServerPoll: return "server";
        case Span::FleetPoll: return "client_fleet";
        case Span::Wait: return "wait";
        case Span::SimRun: return "sim";
        case Span::LinkSend: return "link.send";
        case Span::BenchObserve: return "bench";
        case Span::kCount: break;
    }
    return "?";
}

void Spans::enable(std::uint64_t run_id, std::size_t keep_records) {
    enabled_ = true;
    run_id_ = run_id;
    records_.reserve(keep_records);
}

bool Spans::write_csv(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "run_id,id,parent,name,start_ns,end_ns\n";
    for (const Record& r : records_) {
        out << run_id_ << ',' << r.id << ',' << r.parent << ',' << span_name(r.name) << ','
            << r.start << ',' << r.end << '\n';
    }
    return static_cast<bool>(out);
}

Spans& spans() {
    static Spans instance;
    return instance;
}

// ---- tap ---------------------------------------------------------------

void Tap::count_sent(std::span<const std::span<const std::uint8_t>> datagrams, std::size_t n) {
    ++counts_.send_calls;
    counts_.sent += n;
    for (std::size_t i = 0; i < n; ++i) counts_.bytes_sent += datagrams[i].size();
    stats_ = inner_->stats();
}

std::size_t Tap::send_batch(std::span<const std::span<const std::uint8_t>> datagrams) {
    std::size_t n = 0;
    {
        SpanScope span(Span::TransportSend);
        n = inner_->send_batch(datagrams);
    }
    count_sent(datagrams, n);
    if (observer_ != nullptr) {
        SpanScope span(Span::BenchObserve);
        observer_->on_sent(datagrams.first(n));
    }
    return n;
}

std::size_t Tap::send_batch_to(std::span<const std::span<const std::uint8_t>> datagrams,
                               std::span<const bacp::net::PeerAddr> peers) {
    std::size_t n = 0;
    {
        SpanScope span(Span::TransportSend);
        n = inner_->send_batch_to(datagrams, peers);
    }
    count_sent(datagrams, n);
    if (observer_ != nullptr) {
        SpanScope span(Span::BenchObserve);
        observer_->on_sent(datagrams.first(n));
    }
    return n;
}

std::size_t Tap::recv_batch(bacp::net::RecvBatch& batch) {
    std::size_t n = 0;
    {
        SpanScope span(Span::TransportRecv);
        n = inner_->recv_batch(batch);
    }
    ++counts_.recv_calls;
    counts_.received += n;
    if (n == 0) ++counts_.empty_recvs;
    stats_ = inner_->stats();
    if (observer_ != nullptr && n > 0) {
        SpanScope span(Span::BenchObserve);
        observer_->on_received(batch);
    }
    return n;
}

Tap::Counts sum_counts(std::span<Tap* const> taps) {
    Tap::Counts total;
    for (const Tap* t : taps) {
        const Tap::Counts& c = t->counts();
        total.send_calls += c.send_calls;
        total.sent += c.sent;
        total.recv_calls += c.recv_calls;
        total.received += c.received;
        total.empty_recvs += c.empty_recvs;
        total.bytes_sent += c.bytes_sent;
    }
    return total;
}

// ---- waiter ------------------------------------------------------------

Waiter::Waiter(std::vector<Tap*> taps, bacp::net::Clock& clock)
    : taps_(std::move(taps)), fds_(taps_.size(), -1), clock_(&clock) {
    oversleep_.reserve(1 << 20);
}

void Waiter::wait_until(SimTime deadline) {
    const SimTime before = clock_->now();
    if (deadline <= before) return;
    // Re-read each descriptor: a transport may swap its fd when an
    // offload tier arms.
    for (std::size_t i = 0; i < taps_.size(); ++i) fds_[i] = taps_[i]->fd();
    bool readable = false;
    {
        SpanScope span(Span::Wait);
        readable = bacp::net::wait_readable(fds_, deadline - before);
    }
    if (!counting_) return;
    const SimTime after = clock_->now();
    ++waits_;
    wait_ns_ += after - before;
    if (!readable && oversleep_.size() < oversleep_.capacity()) {
        oversleep_.push_back(after - deadline);
    }
}

// ---- window ------------------------------------------------------------

double quantile(std::vector<SimTime>& v, double q) {
    if (v.empty()) return 0;
    const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
    return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Window::Window(int slices, SimTime slice_ns, std::size_t expected_samples)
    : slices_(slices), slice_ns_(slice_ns) {
    marks_.reserve(static_cast<std::size_t>(slices) + 2);
    samples_.reserve(expected_samples);
}

void Window::start(SimTime now, std::uint64_t msgs, std::uint64_t bytes) {
    marks_.push_back({now, msgs, bytes, Proc::now(), samples_.size()});
    next_mark_ = now + slice_ns_;
    open_ = true;
}

bool Window::mark(SimTime now, std::uint64_t msgs, std::uint64_t bytes) {
    marks_.push_back({now, msgs, bytes, Proc::now(), samples_.size()});
    next_mark_ += slice_ns_;
    if (static_cast<int>(marks_.size()) > slices_) open_ = false;
    return !open_;
}

void Window::close_early(SimTime now, std::uint64_t msgs, std::uint64_t bytes) {
    if (!open_) return;
    if (now - marks_.back().t >= slice_ns_ / 2) {
        marks_.push_back({now, msgs, bytes, Proc::now(), samples_.size()});
    }
    open_ = false;
}

Window::Figures Window::figures() {
    Figures f;
    if (marks_.size() < 2) return f;
    std::vector<double> goodput;
    std::vector<double> cpu;
    std::vector<double> p50;
    std::vector<double> p95;
    std::vector<SimTime> slice;
    f.min_slice_samples = samples_.size();
    for (std::size_t k = 1; k < marks_.size(); ++k) {
        const Mark& a = marks_[k - 1];
        const Mark& b = marks_[k];
        const double dt = static_cast<double>(b.t - a.t) / 1e9;
        goodput.push_back(static_cast<double>(b.bytes - a.bytes) * 8.0 / dt / 1e6);
        cpu.push_back(ratio(b.proc.cpu_us - a.proc.cpu_us, static_cast<double>(b.msgs - a.msgs)));
        slice.assign(samples_.begin() + static_cast<std::ptrdiff_t>(a.sample_index),
                     samples_.begin() + static_cast<std::ptrdiff_t>(b.sample_index));
        f.min_slice_samples = std::min<std::uint64_t>(f.min_slice_samples, slice.size());
        p50.push_back(quantile(slice, 0.50) / 1e3);
        p95.push_back(quantile(slice, 0.95) / 1e3);
    }
    f.slices = static_cast<int>(marks_.size() - 1);
    f.goodput_mbps = median(goodput);
    f.cpu_us_per_msg = median(cpu);
    f.latency_p50_us = median(p50);
    f.latency_p95_us = median(p95);
    f.samples = samples_.size();
    const Mark& first = marks_.front();
    const Mark& last = marks_.back();
    f.msgs = last.msgs - first.msgs;
    f.bytes = last.bytes - first.bytes;
    f.wall_ns = last.t - first.t;
    f.cpu_us = last.proc.cpu_us - first.proc.cpu_us;
    const double sys = last.proc.sampled_sys_us - first.proc.sampled_sys_us;
    f.sys_share = ratio(sys, sys + last.proc.sampled_user_us - first.proc.sampled_user_us);
    f.minflt = last.proc.minflt - first.proc.minflt;
    return f;
}

// ---- results -----------------------------------------------------------

void Result::e2e_from(const Window::Figures& f, double wire_ratio, double setup_seconds) {
    setup_s = setup_seconds;
    e2e = {
        {"goodput_mbps", f.goodput_mbps},
        {"latency_p50_us", f.latency_p50_us},
        {"latency_p95_us", f.latency_p95_us},
        {"cpu_us_per_msg", f.cpu_us_per_msg},
        {"wire_bytes_per_payload_byte", wire_ratio},
        {"peak_rss_mb", peak_rss_mib()},
        {"setup_s", setup_seconds},
    };
    note("window_slices", static_cast<double>(f.slices));
    note("window_s", static_cast<double>(f.wall_ns) / 1e9);
    note("window_msgs", static_cast<double>(f.msgs));
    note("latency_samples", static_cast<double>(f.samples));
    note("latency_min_slice_samples", static_cast<double>(f.min_slice_samples));
}

void Result::note(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(10);
    os << value;
    info.emplace_back(key, os.str());
}

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_object(const std::vector<std::pair<std::string, double>>& rows) {
    std::string out = "{";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(rows[i].first) + ": " + json_number(rows[i].second);
    }
    return out + "}";
}

}  // namespace

std::string Result::to_json() const {
    std::string out = "{\"workload\": " + json_string(workload);
    out += ", \"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"setup_s\": " + json_number(setup_s);
    out += ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(failures[i]);
    }
    out += "], \"e2e\": " + json_object(e2e);
    out += ", \"layers\": " + json_object(layers);
    out += ", \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(info[i].first) + ": " + json_string(info[i].second);
    }
    return out + "}}";
}

void add_net_layers(Result& r, const NetLayerInputs& in) {
    const Window::Figures& f = *in.fig;
    const double msgs = static_cast<double>(f.msgs);
    const double wall = static_cast<double>(f.wall_ns);
    const Spans& sp = spans();
    const auto self = [&](Span s) { return static_cast<double>(sp.total(s).self_ns); };

    r.layer("transport.send_ns_per_dgram",
            ratio(self(Span::TransportSend), static_cast<double>(in.taps.sent)));
    r.layer("transport.recv_ns_per_dgram",
            ratio(self(Span::TransportRecv), static_cast<double>(in.taps.received)));
    r.layer("transport.dgrams_per_send_call",
            ratio(static_cast<double>(in.taps.sent), static_cast<double>(in.taps.send_calls)));
    r.layer("transport.dgrams_per_recv_call",
            ratio(static_cast<double>(in.taps.received), static_cast<double>(in.taps.recv_calls)));
    r.layer("transport.empty_recv_share", ratio(static_cast<double>(in.taps.empty_recvs),
                                                static_cast<double>(in.taps.recv_calls)));
    r.layer("transport.kernel_drops", static_cast<double>(in.kernel_drops));

    std::vector<SimTime> over = in.waiter->oversleep_ns();
    r.layer("wait.idle_share", ratio(static_cast<double>(in.waiter->wait_ns()), wall));
    r.layer("wait.waits_per_msg", ratio(static_cast<double>(in.waiter->waits()), msgs));
    r.layer("wait.oversleep_p50_us", quantile(over, 0.50) / 1e3);
    r.layer("wait.oversleep_p99_us", quantile(over, 0.99) / 1e3);
    r.note("wait.timeout_wakes", static_cast<double>(over.size()));

    r.layer("wheel.timers_fired_per_msg", ratio(static_cast<double>(in.timers_fired), msgs));
    r.layer("wheel.fire_work_per_msg", ratio(static_cast<double>(in.fire_work), msgs));

    const double dgrams = static_cast<double>(in.taps.received);
    r.layer("alloc.steady_per_dgram", ratio(static_cast<double>(in.allocs), dgrams));
    r.layer("proc.sys_share", f.sys_share);
    r.layer("proc.minor_faults_per_msg", ratio(static_cast<double>(f.minflt), msgs));

    // Coverage: the layers' self time plus waiting, over the window.
    if (sp.enabled()) {
        double covered = 0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
            const auto s = static_cast<Span>(i);
            if (s == Span::BenchObserve) continue;
            covered += self(s);
        }
        r.layer("trace.coverage", ratio(covered, wall));
        r.layer("bench.self_ns_per_msg", ratio(self(Span::BenchObserve), msgs));
        r.note("trace.spans_kept", static_cast<double>(sp.recorded()));
    }
}

}  // namespace perfbench
