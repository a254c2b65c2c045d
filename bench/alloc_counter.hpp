#pragma once

/// \file alloc_counter.hpp
/// The benches' counting allocator.  alloc_counter.cpp replaces the
/// global operator new/delete of every bench linked with it (E20, E21,
/// E22, E24, E25), so every heap allocation made anywhere in the
/// process -- engine, cores, channels, transports, tables -- is counted,
/// with no library instrumentation to drift out of date.  A bench reads
/// allocs_now() at the start and end of its steady-state window.
///
/// The replacements live in their own translation unit on purpose: a
/// bench that saw their bodies would inline them, and g++ then reports
/// every free() reached from a new-expression as a mismatched pair
/// (-Wmismatched-new-delete).

#include <cstdint>

namespace bacp::bench {

/// Heap allocations (calls to any operator new) since the process started.
std::uint64_t allocs_now();

/// Debug aid for a nonzero steady-state count: from this call on, the
/// call site of every allocation is recorded (into a fixed table, so
/// recording itself never allocates).
void start_alloc_probe();

/// Stops recording and prints each recorded call site, with how many
/// allocations it made, to stderr.  Does nothing unless a probe runs.
void stop_alloc_probe();

}  // namespace bacp::bench
