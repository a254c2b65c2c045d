// Tests for src/sim: event queue, simulator (incl. idle hooks), timers,
// DES channel, metrics, trace.

#include <gtest/gtest.h>

#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/timer_service.hpp"
#include "runtime/link_spec.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_channel.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bacp::sim {
namespace {

// The restartable one-shot timer every runtime arms, here over the
// simulator's TimerService.
using Timer = OneShotTimer;

using namespace bacp::literals;

// -------------------------------------------------------------- event queue --

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(30, [&] { order.push_back(3); });
    q.push(10, [&] { order.push_back(1); });
    q.push(20, [&] { order.push_back(2); });
    while (!q.empty()) q.pop().handler();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameTimestamp) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) q.push(7, [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop().handler();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelRemovesPending) {
    EventQueue q;
    bool fired = false;
    const auto id = q.push(5, [&] { fired = true; });
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelFiredOrInvalidIsNoop) {
    EventQueue q;
    const auto id = q.push(1, [] {});
    q.pop().handler();
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(kInvalidEvent));
    EXPECT_FALSE(q.cancel(987654));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
    EventQueue q;
    const auto early = q.push(1, [] {});
    q.push(9, [] {});
    q.cancel(early);
    EXPECT_EQ(q.next_time(), 9);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PopEmptyAsserts) {
    EventQueue q;
    EXPECT_THROW(q.pop(), AssertionError);
}

// ---------------------------------------------------------------- simulator --

TEST(Simulator, AdvancesTimeMonotonically) {
    Simulator sim;
    std::vector<SimTime> times;
    sim.schedule_at(5, [&] { times.push_back(sim.now()); });
    sim.schedule_at(2, [&] { times.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(times, (std::vector<SimTime>{2, 5}));
    EXPECT_EQ(sim.now(), 5);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
    Simulator sim;
    SimTime fired_at = -1;
    sim.schedule_at(10, [&] { sim.schedule_after(5, [&] { fired_at = sim.now(); }); });
    sim.run();
    EXPECT_EQ(fired_at, 15);
}

TEST(Simulator, SchedulingInPastAsserts) {
    Simulator sim;
    sim.schedule_at(10, [&] {
        EXPECT_THROW(sim.schedule_at(5, [] {}), AssertionError);
    });
    sim.run();
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator sim;
    int fired = 0;
    for (SimTime t = 1; t <= 10; ++t) sim.schedule_at(t, [&] { ++fired; });
    sim.run_until(5);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(sim.pending_events(), 5u);
    sim.run_until(100);
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunRespectsEventCap) {
    Simulator sim;
    // Self-perpetuating event chain.
    std::function<void()> loop = [&] { sim.schedule_after(1, loop); };
    sim.schedule_at(0, loop);
    const auto fired = sim.run(100);
    EXPECT_EQ(fired, 100u);
}

TEST(Simulator, IdleHookRunsOnlyWhenDrained) {
    Simulator sim;
    std::vector<std::string> log;
    sim.schedule_at(1, [&] { log.push_back("event"); });
    int hook_budget = 2;
    sim.add_idle_hook([&]() -> bool {
        log.push_back("idle");
        if (--hook_budget > 0) {
            sim.schedule_after(1, [&] { log.push_back("follow-up"); });
            return true;
        }
        return false;
    });
    sim.run();
    EXPECT_EQ(log, (std::vector<std::string>{"event", "idle", "follow-up", "idle"}));
}

TEST(Simulator, DeterministicAcrossRuns) {
    auto run_once = [] {
        Simulator sim;
        Rng rng(7);
        std::vector<SimTime> fired;
        for (int i = 0; i < 50; ++i) {
            sim.schedule_at(static_cast<SimTime>(rng.uniform(1000)),
                            [&fired, &sim] { fired.push_back(sim.now()); });
        }
        sim.run();
        return fired;
    };
    EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------------------------- timer --

TEST(Timer, FiresAfterDelay) {
    Simulator sim;
    int fired = 0;
    Timer t(sim, [&] { ++fired; });
    t.restart(10);
    EXPECT_TRUE(t.armed());
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(sim.now(), 10);
}

TEST(Timer, RestartSupersedesPreviousDeadline) {
    Simulator sim;
    SimTime fired_at = -1;
    Timer t(sim, [&] { fired_at = sim.now(); });
    t.restart(10);
    sim.schedule_at(5, [&] { t.restart(10); });  // push the deadline out
    sim.run();
    EXPECT_EQ(fired_at, 15);
}

TEST(Timer, CancelPreventsFiring) {
    Simulator sim;
    int fired = 0;
    Timer t(sim, [&] { ++fired; });
    t.restart(10);
    sim.schedule_at(5, [&] { t.cancel(); });
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST(Timer, IsOneShot) {
    Simulator sim;
    int fired = 0;
    Timer t(sim, [&] { ++fired; });
    t.restart(3);
    sim.run();
    EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------------ channel --

SimChannel::Config lossless_fixed(SimTime delay) {
    SimChannel::Config cfg;
    cfg.delay = std::make_unique<channel::FixedDelay>(delay);
    return cfg;
}

TEST(SimChannel, DeliversAfterDelay) {
    Simulator sim;
    Rng rng(1);
    SimChannel ch(sim, rng, lossless_fixed(2_ms));
    std::vector<proto::Message> got;
    ch.set_receiver([&](const proto::Message& m) { got.push_back(m); });
    ch.send(proto::Data{5});
    EXPECT_EQ(ch.in_flight(), 1u);
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], proto::Message{proto::Data{5}});
    EXPECT_EQ(sim.now(), 2_ms);
    EXPECT_EQ(ch.in_flight(), 0u);
}

TEST(SimChannel, RandomDelaysReorder) {
    Simulator sim;
    Rng rng(2);
    SimChannel::Config cfg;
    cfg.delay = std::make_unique<channel::UniformDelay>(0, 10_ms);
    SimChannel ch(sim, rng, std::move(cfg));
    std::vector<Seq> got;
    ch.set_receiver([&](const proto::Message& m) { got.push_back(std::get<proto::Data>(m).seq); });
    for (Seq i = 0; i < 50; ++i) ch.send(proto::Data{i});
    sim.run();
    ASSERT_EQ(got.size(), 50u);
    EXPECT_FALSE(std::is_sorted(got.begin(), got.end()));  // disorder happened
}

TEST(SimChannel, FifoModePreservesOrderDespiteRandomDelays) {
    Simulator sim;
    Rng rng(3);
    SimChannel::Config cfg;
    cfg.delay = std::make_unique<channel::UniformDelay>(0, 10_ms);
    cfg.fifo = true;
    SimChannel ch(sim, rng, std::move(cfg));
    std::vector<Seq> got;
    ch.set_receiver([&](const proto::Message& m) { got.push_back(std::get<proto::Data>(m).seq); });
    for (Seq i = 0; i < 50; ++i) ch.send(proto::Data{i});
    sim.run();
    ASSERT_EQ(got.size(), 50u);
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(SimChannel, LossDropsWithoutDelivery) {
    Simulator sim;
    Rng rng(4);
    SimChannel::Config cfg = lossless_fixed(1_ms);
    cfg.loss = std::make_unique<channel::BernoulliLoss>(1.0);
    SimChannel ch(sim, rng, std::move(cfg));
    int got = 0;
    ch.set_receiver([&](const proto::Message&) { ++got; });
    for (int i = 0; i < 10; ++i) ch.send(proto::Data{0});
    sim.run();
    EXPECT_EQ(got, 0);
    EXPECT_EQ(ch.stats().dropped, 10u);
    EXPECT_EQ(ch.stats().sent, 10u);
}

TEST(SimChannel, LifetimeBoundHolds) {
    // No message may spend longer than max_lifetime in transit -- the
    // aging property the timeout correctness relies on.
    Simulator sim;
    Rng rng(5);
    SimChannel::Config cfg;
    cfg.delay = std::make_unique<channel::UniformDelay>(1_ms, 7_ms);
    SimChannel ch(sim, rng, std::move(cfg));
    const SimTime lifetime = ch.max_lifetime();
    EXPECT_EQ(lifetime, 7_ms);
    std::vector<SimTime> sent_at;
    ch.set_receiver([&](const proto::Message& m) {
        const Seq i = std::get<proto::Data>(m).seq;
        EXPECT_LE(sim.now() - sent_at[static_cast<std::size_t>(i)], lifetime);
    });
    for (Seq i = 0; i < 200; ++i) {
        sent_at.push_back(sim.now());
        ch.send(proto::Data{i});
        sim.run_until(sim.now());  // interleave sends with deliveries
    }
    sim.run();
}

TEST(SimChannel, SnapshotTracksInFlightMultiset) {
    Simulator sim;
    Rng rng(6);
    SimChannel::Config cfg = lossless_fixed(5_ms);
    cfg.track_contents = true;
    SimChannel ch(sim, rng, std::move(cfg));
    ch.set_receiver([](const proto::Message&) {});
    ch.send(proto::Data{1});
    ch.send(proto::Ack{0, 2});
    auto snap = ch.snapshot();
    EXPECT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap.count_data(1), 1u);
    EXPECT_EQ(snap.count_ack_covering(1), 1u);
    sim.run();
    EXPECT_TRUE(ch.snapshot().empty());
}

TEST(SimChannel, SnapshotWithoutTrackingAsserts) {
    Simulator sim;
    Rng rng(7);
    SimChannel ch(sim, rng, lossless_fixed(1_ms));
    EXPECT_THROW(ch.snapshot(), AssertionError);
}

TEST(SimChannel, TraceRecordsSendDropDeliver) {
    Simulator sim;
    Rng rng(8);
    SimChannel::Config cfg = lossless_fixed(1_ms);
    cfg.loss = std::make_unique<channel::ScriptedLoss>(std::vector<std::uint64_t>{1});
    SimChannel ch(sim, rng, std::move(cfg), "C_SR");
    TraceRecorder trace;
    ch.set_trace(&trace);
    ch.set_receiver([](const proto::Message&) {});
    ch.send(proto::Data{0});
    ch.send(proto::Data{1});
    sim.run();
    EXPECT_TRUE(trace.contains("send D(0)"));
    EXPECT_TRUE(trace.contains("drop D(1)"));
    EXPECT_TRUE(trace.contains("deliver D(0)"));
    EXPECT_FALSE(trace.contains("deliver D(1)"));
}

// ------------------------------------------------------------------ metrics --

TEST(Metrics, ThroughputFromElapsed) {
    Metrics m;
    m.delivered = 500;
    m.start_time = 0;
    m.end_time = 2 * kSecond;
    EXPECT_DOUBLE_EQ(m.throughput_msgs_per_sec(), 250.0);
}

TEST(Metrics, ZeroElapsedIsZeroThroughput) {
    Metrics m;
    m.delivered = 10;
    EXPECT_EQ(m.throughput_msgs_per_sec(), 0.0);
}

TEST(Metrics, AckOverheadAndRetxFraction) {
    Metrics m;
    m.delivered = 100;
    m.acks_sent = 20;
    m.dup_acks = 5;
    m.data_new = 100;
    m.data_retx = 25;
    EXPECT_DOUBLE_EQ(m.acks_per_delivered(), 0.25);
    EXPECT_DOUBLE_EQ(m.retx_fraction(), 0.2);
}

TEST(Metrics, SummaryMentionsKeyFields) {
    Metrics m;
    m.delivered = 3;
    m.end_time = kSecond;
    const auto s = m.summary();
    EXPECT_NE(s.find("delivered=3"), std::string::npos);
    EXPECT_NE(s.find("thr="), std::string::npos);
}

// -------------------------------------------------------------------- trace --

TEST(Trace, DumpFormatsChronologically) {
    TraceRecorder trace;
    trace.record(1, "S", "send D(0)");
    trace.record(2, "R", "rcv D(0)");
    const auto dump = trace.dump();
    EXPECT_NE(dump.find("t=1 [S] send D(0)"), std::string::npos);
    EXPECT_NE(dump.find("t=2 [R] rcv D(0)"), std::string::npos);
    EXPECT_EQ(trace.size(), 2u);
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
}

// ---------------------------------------------------------------- link spec --

TEST(LinkSpec, FactoriesProduceWorkingChannels) {
    using runtime::LinkSpec;
    Simulator sim;
    Rng rng(9);
    auto spec = LinkSpec::lossy(0.5, 1_ms, 2_ms);
    SimChannel ch(sim, rng, spec.make_config());
    int got = 0;
    ch.set_receiver([&](const proto::Message&) { ++got; });
    for (int i = 0; i < 2000; ++i) ch.send(proto::Data{0});
    sim.run();
    EXPECT_NEAR(got, 1000, 100);
    EXPECT_EQ(spec.max_lifetime(), 2_ms);
}

TEST(LinkSpec, FixedDelayLifetime) {
    using runtime::LinkSpec;
    LinkSpec spec;
    spec.delay_kind = LinkSpec::Delay::Fixed;
    spec.delay_lo = 3_ms;
    EXPECT_EQ(spec.max_lifetime(), 3_ms);
}

}  // namespace
}  // namespace bacp::sim
