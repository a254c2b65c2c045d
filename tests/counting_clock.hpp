#pragma once

// A clock wrapper that counts every read, shared by the tests that hold
// the real-time runtime to its clock-read budget (one reading per step).

#include <cstdint>

#include "net/clock.hpp"

namespace bacp::net {

/// Counts every read of a wrapped clock.
class CountingClock final : public Clock {
public:
    explicit CountingClock(const Clock& inner) : inner_(inner) {}

    SimTime now() const override {
        ++reads_;
        return inner_.now();
    }

    std::uint64_t reads() const { return reads_; }

private:
    const Clock& inner_;
    mutable std::uint64_t reads_ = 0;
};

}  // namespace bacp::net
