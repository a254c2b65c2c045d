#pragma once

/// \file clock.hpp
/// Time sources for the real-time runtime.
///
/// The net runtime measures time in the same integer nanoseconds
/// (SimTime) as the simulator, but reads them from a Clock instead of the
/// event loop: SteadyClock maps std::chrono::steady_clock onto SimTime
/// for real socket runs, and ManualClock is advanced explicitly by the
/// single-process pair driver so in-process runs are exactly reproducible
/// (the property the simulator gets for free and real time normally
/// destroys).
///
/// Endpoints never read a Clock themselves: their TimerWheel does, once
/// per step (one datagram, one fire_due() pass, one application call),
/// and hands every decision of the step that one reading -- see
/// timer_wheel.hpp.  A ManualClock cannot move inside a step, so
/// deterministic runs are the same either way.

#include <chrono>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::net {

class Clock {
public:
    virtual ~Clock() = default;

    /// Monotone nanoseconds since an arbitrary epoch.
    virtual SimTime now() const = 0;
};

/// Wall clock: nanoseconds of std::chrono::steady_clock elapsed since
/// this object was constructed (a small epoch keeps SimTime arithmetic
/// far from overflow).
class SteadyClock final : public Clock {
public:
    SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

    SimTime now() const override {
        const auto dt = std::chrono::steady_clock::now() - epoch_;
        return std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count();
    }

private:
    std::chrono::steady_clock::time_point epoch_;
};

/// Deterministic clock: time moves only when the driver advances it
/// (to the next timer deadline, typically).  Never goes backwards.
class ManualClock final : public Clock {
public:
    SimTime now() const override { return now_; }

    void advance(SimTime delta) {
        BACP_ASSERT_MSG(delta >= 0, "clock cannot run backwards");
        now_ += delta;
    }

    /// Advances to \p t if it is in the future; no-op otherwise.
    void advance_to(SimTime t) {
        if (t > now_) now_ = t;
    }

private:
    SimTime now_ = 0;
};

}  // namespace bacp::net
