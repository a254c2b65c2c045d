#include "alloc_counting.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace {

bool g_count = false;
std::uint64_t g_allocs = 0;
std::int64_t g_live = 0;  // usable bytes, so both sides of the balance agree

}  // namespace

namespace bacp::test {

std::uint64_t counted_allocs() { return g_allocs; }
std::int64_t counted_live_bytes() { return g_live; }
void set_counting(bool on) { g_count = on; }

}  // namespace bacp::test

void* operator new(std::size_t n) {
    void* p = std::malloc(n ? n : 1);
    if (p == nullptr) throw std::bad_alloc();
    if (g_count) {
        ++g_allocs;
        g_live += static_cast<std::int64_t>(malloc_usable_size(p));
    }
    return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
    if (p != nullptr && g_count) g_live -= static_cast<std::int64_t>(malloc_usable_size(p));
    std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
