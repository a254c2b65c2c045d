#include "net/timer_wheel.hpp"

#include <utility>

#include "common/assert.hpp"

namespace bacp::net {

TimerId TimerWheel::schedule_after(SimTime delay, Handler fn) {
    BACP_ASSERT_MSG(delay >= 0, "negative delay");
    BACP_ASSERT(fn);
    const SimTime t = now();
    return wheel_.push(t, t + delay, std::move(fn));
}

std::size_t TimerWheel::fire_due() {
    const Step step(*this);
    const std::size_t fired = wheel_.fire_due(stamp_);
    if (fired > 0) {
        ++fire_batches_;
        timers_fired_ += fired;
    }
    return fired;
}

}  // namespace bacp::net
