#pragma once

/// \file alloc_counting.hpp
/// The tests' counting allocator.  alloc_counting.cpp replaces the
/// global operator new/delete of every test linked with it (the
/// bacp_test_alloc object library), so a test can count the heap
/// allocations, and the live bytes, a scoped window makes.
///
/// The replacements live in their own translation unit on purpose: a
/// test that saw their bodies would inline them, and g++ then reports
/// every free() reached from a new-expression as a mismatched pair
/// (-Wmismatched-new-delete).  bench/alloc_counter.cpp does the same
/// for the bench gates.

#include <cstdint>

namespace bacp::test {

/// Allocations counted so far, over every counting window.
std::uint64_t counted_allocs();
/// Usable bytes allocated minus freed while counting, over every window.
std::int64_t counted_live_bytes();
/// Switches counting on or off.
void set_counting(bool on);

/// Counts allocations and net live bytes for the scope's lifetime.
class Counting {
public:
    Counting() : allocs0_(counted_allocs()), live0_(counted_live_bytes()) { set_counting(true); }
    ~Counting() { set_counting(false); }
    Counting(const Counting&) = delete;
    Counting& operator=(const Counting&) = delete;

    std::uint64_t allocs() const { return counted_allocs() - allocs0_; }
    std::int64_t live_bytes() const { return counted_live_bytes() - live0_; }

private:
    std::uint64_t allocs0_;
    std::int64_t live0_;
};

}  // namespace bacp::test
