// Oracle tests for common/hier_wheel.hpp: the hierarchical wheel must
// agree with the repo's reference ordered structure (SlabTimerHeap, the
// previous net::TimerWheel backend) under arm/cancel/fire storms -- same
// fire sequences, same sizes, same exact next deadline -- including the
// eager-cancel path E22's ack coalescing depends on and reentrant
// push/cancel from inside handlers.  Plus the scaling property the
// redesign exists for: fire_due work grows with due timers, not armed.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hier_wheel.hpp"
#include "common/rng.hpp"
#include "common/slab_heap.hpp"
#include "common/timer_service.hpp"

namespace bacp {
namespace {

using Wheel = HierTimerWheel<TimerHandler>;
using Heap = SlabTimerHeap<TimerHandler>;

std::size_t heap_fire_due(Heap& heap, SimTime now) {
    std::size_t fired = 0;
    while (!heap.empty() && heap.top_time() <= now) {
        auto due = heap.pop();
        due.handler();
        ++fired;
    }
    return fired;
}

std::optional<SimTime> heap_next(const Heap& heap) {
    if (heap.empty()) return std::nullopt;
    return heap.top_time();
}

TEST(HierWheel, FiresInDeadlineThenFifoOrder) {
    Wheel wheel;
    std::vector<int> log;
    // Same deadline scheduled out of id order, plus earlier/later ones,
    // spanning bucket and level boundaries.
    const SimTime t0 = 1'000'000;
    wheel.push(0, t0 + 50'000'000, [&] { log.push_back(5); });  // level >= 1
    wheel.push(0, t0, [&] { log.push_back(1); });
    wheel.push(0, t0, [&] { log.push_back(2); });
    wheel.push(0, t0 + 1, [&] { log.push_back(3); });  // same bucket, later time
    wheel.push(0, t0 - 1, [&] { log.push_back(0); });
    wheel.push(0, t0 + 100'000, [&] { log.push_back(4); });  // later bucket
    EXPECT_EQ(wheel.next_deadline(), std::optional<SimTime>(t0 - 1));
    EXPECT_EQ(wheel.fire_due(t0 - 2), 0u);
    EXPECT_EQ(wheel.fire_due(t0 + 60'000'000), 6u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_TRUE(wheel.empty());
}

TEST(HierWheel, CancelIsEagerAndStaleCancelIsNoop) {
    Wheel wheel;
    int fired = 0;
    auto a = wheel.push(0, 100, [&] { ++fired; });
    auto b = wheel.push(0, 200, [&] { ++fired; });
    EXPECT_EQ(wheel.size(), 2u);
    EXPECT_TRUE(wheel.cancel(a));
    EXPECT_EQ(wheel.size(), 1u);     // eagerly gone, not lazily skipped
    EXPECT_FALSE(wheel.cancel(a));   // stale id: no-op
    EXPECT_EQ(wheel.next_deadline(), std::optional<SimTime>(200));
    EXPECT_EQ(wheel.fire_due(1000), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(wheel.cancel(b));  // fired id: no-op
    EXPECT_FALSE(wheel.cancel(0));
}

TEST(HierWheel, ReentrantPushFiresSameCallWhenDue) {
    Wheel wheel;
    std::vector<int> log;
    wheel.push(0, 100, [&] {
        log.push_back(0);
        wheel.push(100, 150, [&] { log.push_back(1); });   // due: fires this call
        wheel.push(100, 5'000'000, [&] { log.push_back(9); });  // not due
    });
    EXPECT_EQ(wheel.fire_due(200), 2u);
    EXPECT_EQ(log, (std::vector<int>{0, 1}));
    EXPECT_EQ(wheel.size(), 1u);
}

TEST(HierWheel, HandlerRearmingAnEmptiedWheelLateKeepsItsPlace) {
    // A real-clock handler runs after fire_due's snapshot of now.  The
    // wheel is empty when it re-arms, so push() re-bases the cursor at
    // the handler's later reading; fire_due must not then pull the cursor
    // back to its snapshot, or the new entry's bucket aliases an earlier
    // tick and a later fire_due between the two spins on it for ever.
    constexpr SimTime kTick = SimTime{1} << 16;
    Wheel wheel;
    int fired = 0;
    wheel.push(0, 100, [&] { wheel.push(200 * kTick, 230 * kTick, [&] { ++fired; }); });
    EXPECT_EQ(wheel.fire_due(100), 1u);
    EXPECT_EQ(wheel.next_deadline(), std::optional<SimTime>(230 * kTick));
    EXPECT_EQ(wheel.fire_due(100 * kTick), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(wheel.fire_due(230 * kTick), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(wheel.empty());
}

TEST(HierWheel, HandlerCancellingCollectedTimerWins) {
    // Two timers in the same due bucket; the first handler cancels the
    // second before it runs.  The staged-generation check must honor it.
    Wheel wheel;
    std::vector<int> log;
    Wheel::Id second = 0;
    wheel.push(0, 100, [&] {
        log.push_back(0);
        EXPECT_TRUE(wheel.cancel(second));
    });
    second = wheel.push(0, 100, [&] { log.push_back(1); });
    EXPECT_EQ(wheel.fire_due(100), 1u);
    EXPECT_EQ(log, (std::vector<int>{0}));
    EXPECT_TRUE(wheel.empty());
}

// Randomized storm against the reference heap.  Delays mix every scale
// the runtime uses -- sub-tick ack coalescing, millisecond timeouts,
// multi-second idle sweeps -- so entries cross bucket levels and
// cascade boundaries while the two structures must stay in lockstep.
TEST(HierWheel, RandomStormMatchesSlabHeapOracle) {
    Rng rng(0x4EE1'0001);
    Wheel wheel;
    Heap heap;
    std::vector<int> wheel_log, heap_log;
    struct Live {
        Wheel::Id w;
        Heap::Id h;
    };
    std::vector<Live> live;
    SimTime now = 0;
    int tag = 0;
    for (int i = 0; i < 30000; ++i) {
        const std::uint64_t op = rng.uniform(100);
        if (op < 45) {  // arm
            static constexpr SimTime kScales[] = {1, 1000, 65'536, 1'000'000, 100'000'000,
                                                  5'000'000'000};
            const SimTime delay = static_cast<SimTime>(
                rng.uniform(static_cast<std::uint64_t>(kScales[rng.uniform(6)])) );
            const int t = tag++;
            Live ids{wheel.push(now, now + delay, [&wheel_log, t] { wheel_log.push_back(t); }),
                     heap.push(now + delay, [&heap_log, t] { heap_log.push_back(t); })};
            live.push_back(ids);
        } else if (op < 70) {  // eager cancel of a random live timer
            if (!live.empty()) {
                const std::size_t pick = rng.uniform(live.size());
                wheel.cancel(live[pick].w);
                heap.cancel(live[pick].h);
                live[pick] = live.back();
                live.pop_back();
            }
        } else if (op < 90) {  // advance and fire
            now += static_cast<SimTime>(rng.uniform(2'000'000));
            ASSERT_EQ(wheel.fire_due(now), heap_fire_due(heap, now));
            ASSERT_EQ(wheel_log, heap_log);
        } else {  // arm-then-cancel immediately (the coalescing pattern)
            const int t = tag++;
            auto w = wheel.push(now, now + 50'000, [&wheel_log, t] { wheel_log.push_back(t); });
            auto h = heap.push(now + 50'000, [&heap_log, t] { heap_log.push_back(t); });
            EXPECT_TRUE(wheel.cancel(w));
            EXPECT_TRUE(heap.cancel(h));
        }
        ASSERT_EQ(wheel.size(), heap.size());
        ASSERT_EQ(wheel.next_deadline(), heap_next(heap));
    }
    // Drain completely: identical tails.
    now += 10'000'000'000;
    ASSERT_EQ(wheel.fire_due(now), heap_fire_due(heap, now));
    ASSERT_EQ(wheel_log, heap_log);
    ASSERT_TRUE(wheel.empty());
}

// Long-horizon storm: big idle gaps force multi-level cascades and
// bitmap skipping over mostly-empty wheels.
TEST(HierWheel, SparseLongHorizonMatchesOracle) {
    Rng rng(0x4EE1'0002);
    Wheel wheel;
    Heap heap;
    std::vector<int> wheel_log, heap_log;
    SimTime now = 0;
    int tag = 0;
    for (int round = 0; round < 400; ++round) {
        const int arms = 1 + static_cast<int>(rng.uniform(4));
        for (int a = 0; a < arms; ++a) {
            // Up to ~300 s out: top levels of the wheel.
            const SimTime delay = static_cast<SimTime>(rng.uniform(300'000'000'000ull));
            const int t = tag++;
            wheel.push(now, now + delay, [&wheel_log, t] { wheel_log.push_back(t); });
            heap.push(now + delay, [&heap_log, t] { heap_log.push_back(t); });
        }
        now += static_cast<SimTime>(rng.uniform(20'000'000'000ull));  // jump up to 20 s
        ASSERT_EQ(wheel.fire_due(now), heap_fire_due(heap, now));
        ASSERT_EQ(wheel_log, heap_log);
        ASSERT_EQ(wheel.size(), heap.size());
        ASSERT_EQ(wheel.next_deadline(), heap_next(heap));
    }
}

// The redesign's reason to exist: firing k due timers out of N armed
// costs work proportional to k (plus a constant per poll), not N.
TEST(HierWheel, FireWorkScalesWithDueNotArmed) {
    Wheel wheel;
    const SimTime far = 60'000'000'000;  // 60 s out
    for (int i = 0; i < 100'000; ++i) {
        wheel.push(0, far + (i % 1000) * 1'000'000, [] {});
    }
    // Idle polls over 100k armed timers: near-zero work each.
    const std::uint64_t before_idle = wheel.work_ops();
    for (SimTime t = 0; t < 1'000'000'000; t += 10'000'000) wheel.fire_due(t);
    const std::uint64_t idle_work = wheel.work_ops() - before_idle;
    EXPECT_LT(idle_work, 100u) << "idle polls must not scan armed timers";

    // Fire a small due batch amid the same armed population.
    int fired = 0;
    for (int i = 0; i < 64; ++i) {
        wheel.push(1'000'000'000, 2'000'000'000 + i, [&] { ++fired; });
    }
    const std::uint64_t before_fire = wheel.work_ops();
    EXPECT_EQ(wheel.fire_due(3'000'000'000), 64u);
    const std::uint64_t fire_work = wheel.work_ops() - before_fire;
    EXPECT_EQ(fired, 64);
    // Work for 64 due timers: staging + a few cascades/bitmap scans.
    // 100k armed timers would dwarf this bound if the wheel scanned them.
    EXPECT_LT(fire_work, 64 * 8 + 256u);
    EXPECT_EQ(wheel.size(), 100'000u);
}

TEST(HierWheel, ZeroTickAndPastDeadlinesFireInOrder) {
    Wheel wheel;
    std::vector<int> log;
    // Deadlines below one tick and "in the past" relative to the base
    // cursor (the clamp path) must still fire in exact time order.
    wheel.push(500'000, 600'000, [&] { log.push_back(2); });
    wheel.push(500'000, 100, [&] { log.push_back(0); });  // far in the past
    wheel.push(500'000, 500'000, [&] { log.push_back(1); });
    EXPECT_EQ(wheel.next_deadline(), std::optional<SimTime>(100));
    EXPECT_EQ(wheel.fire_due(700'000), 3u);
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace bacp
