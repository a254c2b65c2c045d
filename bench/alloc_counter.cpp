#include "alloc_counter.hpp"

#include <execinfo.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<bool> g_probe{false};

// Call-site table for the probe: backtraces hashed into fixed slots.
constexpr std::size_t kTraceSlots = 64;
constexpr int kTraceDepth = 10;
struct TraceSlot {
    void* frames[kTraceDepth] = {};
    int depth = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<bool> used{false};
};
TraceSlot g_slots[kTraceSlots];

void record_trace() {
    void* frames[kTraceDepth];
    const int depth = backtrace(frames, kTraceDepth);
    std::uint64_t h = 1469598103934665603ULL;
    for (int i = 2; i < depth; ++i) {
        h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) * 1099511628211ULL;
    }
    for (std::size_t probe = 0; probe < kTraceSlots; ++probe) {
        TraceSlot& s = g_slots[(h + probe) % kTraceSlots];
        if (s.used.load(std::memory_order_acquire)) {
            if (s.depth == depth && std::memcmp(s.frames, frames, sizeof(void*) * depth) == 0) {
                s.hits.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            continue;
        }
        bool expected = false;
        if (s.used.compare_exchange_strong(expected, true)) {
            std::memcpy(s.frames, frames, sizeof(void*) * depth);
            s.depth = depth;
            s.hits.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

void count_alloc() {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (g_probe.load(std::memory_order_relaxed)) {
        // backtrace() may allocate; keep the probe off while it runs.
        g_probe.store(false, std::memory_order_relaxed);
        record_trace();
        g_probe.store(true, std::memory_order_relaxed);
    }
}

}  // namespace

namespace bacp::bench {

std::uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }

void start_alloc_probe() {
    void* prime[2];
    backtrace(prime, 2);  // libgcc's lazy init allocates; do it before recording
    g_probe.store(true, std::memory_order_relaxed);
}

void stop_alloc_probe() {
    if (!g_probe.exchange(false, std::memory_order_relaxed)) return;
    for (TraceSlot& s : g_slots) {
        if (!s.used.load(std::memory_order_acquire)) continue;
        std::fprintf(stderr, "---- %llu allocs from:\n",
                     static_cast<unsigned long long>(s.hits.load()));
        backtrace_symbols_fd(s.frames, s.depth, 2);
    }
}

}  // namespace bacp::bench

void* operator new(std::size_t size) {
    count_alloc();
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
    count_alloc();
    const auto a = static_cast<std::size_t>(align);
    if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
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
