// Dedicated tests for the small runtime utilities: SACK-style ack
// clipping at the mod-2w wrap boundary (ack_clip.hpp), the seed-mixing
// and TimeoutMode naming helpers (session_util.cpp), the send-horizon
// rule (horizon.hpp), the shared derived-timeout formula
// (endpoint_driver.hpp), and the driver's per-seq ring (endpoint_core.hpp).

#include <gtest/gtest.h>

#include <vector>

#include "ba/bounded_sender.hpp"
#include "ba/sender.hpp"
#include "runtime/ack_clip.hpp"
#include "runtime/endpoint_driver.hpp"
#include "runtime/horizon.hpp"
#include "runtime/session_util.hpp"
#include "runtime/timeout_mode.hpp"

namespace bacp::runtime {
namespace {

// --------------------------------------------------- unbounded ack clipping --

TEST(AckClipUnbounded, FullFreshRangePassesThrough) {
    ba::Sender s(4);
    for (int i = 0; i < 4; ++i) s.send_new();
    const auto runs = clip_ack_unbounded(s, proto::Ack{0, 3});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 3}));
}

TEST(AckClipUnbounded, RangeBeyondNsIsTruncated) {
    ba::Sender s(8);
    s.send_new();
    s.send_new();
    const auto runs = clip_ack_unbounded(s, proto::Ack{0, 7});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 1}));
}

TEST(AckClipUnbounded, InvertedRangeIsEmpty) {
    ba::Sender s(4);
    s.send_new();
    EXPECT_TRUE(clip_ack_unbounded(s, proto::Ack{3, 1}).empty());
}

TEST(AckClipUnbounded, MultipleHolesSplitIntoMultipleRuns) {
    ba::Sender s(8);
    for (int i = 0; i < 8; ++i) s.send_new();
    s.on_ack(proto::Ack{1, 1});
    s.on_ack(proto::Ack{4, 5});
    const auto runs = clip_ack_unbounded(s, proto::Ack{0, 7});
    ASSERT_EQ(runs.size(), 3u);
    EXPECT_EQ(runs[0], (proto::Ack{0, 0}));
    EXPECT_EQ(runs[1], (proto::Ack{2, 3}));
    EXPECT_EQ(runs[2], (proto::Ack{6, 7}));
}

// ------------------------------------- bounded ack clipping at the mod-2w wrap --

/// Walks a bounded sender (domain n = 2w) so that na sits at residue
/// `target` with an empty window: send and immediately ack until there.
void walk_na_to(ba::BoundedSender& s, Seq target) {
    while (s.na_mod() != target) {
        const auto msg = s.send_new();
        s.on_ack(proto::Ack{msg.seq, msg.seq});
    }
}

TEST(AckClipBounded, WrappedRangeStaysOneRun) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 6);
    for (int i = 0; i < 4; ++i) s.send_new();  // residues 6,7,0,1
    const auto runs = clip_ack_bounded(s, proto::Ack{6, 1});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].lo, 6u);
    EXPECT_EQ(runs[0].hi, 1u);
}

TEST(AckClipBounded, HoleExactlyAtTheWrapSplitsRuns) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 6);
    for (int i = 0; i < 4; ++i) s.send_new();  // residues 6,7,0,1
    s.on_ack(proto::Ack{0, 0});                // hole right past the wrap
    const auto runs = clip_ack_bounded(s, proto::Ack{6, 1});
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0], (proto::Ack{6, 7}));
    EXPECT_EQ(runs[1], (proto::Ack{1, 1}));
}

TEST(AckClipBounded, StaleResiduesBelowNaAreClipped) {
    ba::BoundedSender s(4);  // n = 8
    walk_na_to(s, 2);
    s.send_new();  // residue 2 outstanding
    // Residues 0..1 alias ALREADY-ACKED positions one domain ago; only
    // the outstanding residue 2 may reach the strict core.
    const auto runs = clip_ack_bounded(s, proto::Ack{0, 2});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (proto::Ack{2, 2}));
}

TEST(AckClipBounded, MalformedResiduesOutsideDomainIgnored) {
    ba::BoundedSender s(4);
    s.send_new();
    EXPECT_TRUE(clip_ack_bounded(s, proto::Ack{8, 8}).empty());
    EXPECT_TRUE(clip_ack_bounded(s, proto::Ack{0, 9}).empty());
}

TEST(AckClipBounded, EmptyWindowYieldsNoRuns) {
    ba::BoundedSender s(4);
    walk_na_to(s, 5);
    EXPECT_TRUE(clip_ack_bounded(s, proto::Ack{4, 6}).empty());
}

// ---------------------------------------------------------- session_util --

TEST(SessionUtil, TimeoutModeNames) {
    EXPECT_STREQ(to_string(TimeoutMode::OracleSimple), "oracle-simple");
    EXPECT_STREQ(to_string(TimeoutMode::OraclePerMessage), "oracle-per-message");
    EXPECT_STREQ(to_string(TimeoutMode::SimpleTimer), "simple-timer");
    EXPECT_STREQ(to_string(TimeoutMode::PerMessageTimer), "per-message-timer");
}

TEST(SessionUtil, MixSeedIsDeterministicAndSaltSensitive) {
    EXPECT_EQ(mix_seed(1, 0xd1), mix_seed(1, 0xd1));
    EXPECT_NE(mix_seed(1, 0xd1), mix_seed(1, 0xac));
    EXPECT_NE(mix_seed(1, 0xd1), mix_seed(2, 0xd1));
    // Channel RNG streams must stay decorrelated even for seed 0.
    EXPECT_NE(mix_seed(0, 0xd1), mix_seed(0, 0xac));
    EXPECT_NE(mix_seed(0, 0xd1), 0u);
}

// ------------------------------------------------------------ derived timeout --

// The conservative retransmission timeout that preserves the paper's
// assertion 8 (at most one copy of each data message or its ack in
// transit): one data lifetime out, one ack lifetime back, the longest the
// receiver may sit on the ack, plus a millisecond of margin.  Both
// runtimes derive from this one function; the values here pin the bound.

TEST(DerivedTimeout, SumOfLifetimesAckDelayAndMargin) {
    LinkSpec data;
    data.delay_kind = LinkSpec::Delay::Fixed;
    data.delay_lo = 7 * kMillisecond;  // Fixed: lifetime == delay_lo
    LinkSpec ack;
    ack.delay_kind = LinkSpec::Delay::Uniform;
    ack.delay_lo = 2 * kMillisecond;
    ack.delay_hi = 5 * kMillisecond;  // Uniform: lifetime == delay_hi
    const AckPolicy policy = AckPolicy::batch(4, 3 * kMillisecond);
    EXPECT_EQ(derived_timeout(data, ack, policy),
              7 * kMillisecond + 5 * kMillisecond + 3 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, EagerPolicyContributesNoAckDelay) {
    const LinkSpec link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_EQ(derived_timeout(link, link, AckPolicy::eager()),
              2 * 10 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, BottleneckQueueExtendsTheLifetime) {
    // A queued message can wait behind queue_capacity predecessors plus
    // its own service slot; the bound must absorb that worst case.
    LinkSpec data = LinkSpec::lossless(0, 4 * kMillisecond);
    data.service_time = 100 * kMicrosecond;
    data.queue_capacity = 9;
    const LinkSpec ack = LinkSpec::lossless(0, 4 * kMillisecond);
    EXPECT_EQ(derived_timeout(data, ack, AckPolicy::eager()),
              (4 * kMillisecond + 10 * 100 * kMicrosecond) + 4 * kMillisecond + kMillisecond);
}

TEST(DerivedTimeout, StrictlyExceedsTheRoundTrip) {
    // The margin is what makes assertion 8 hold: the timer may not fire
    // while the previous copy (or the ack it provoked) can still arrive.
    const LinkSpec link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_GT(derived_timeout(link, link, AckPolicy::eager()),
              link.max_lifetime() + link.max_lifetime());
}

TEST(DerivedTimeout, EffectiveTimeoutPrefersTheExplicitValue) {
    EngineConfig cfg;
    cfg.data_link = LinkSpec::lossless(0, 10 * kMillisecond);
    cfg.ack_link = LinkSpec::lossless(0, 10 * kMillisecond);
    EXPECT_EQ(effective_timeout(cfg),
              derived_timeout(cfg.data_link, cfg.ack_link, cfg.ack_policy));
    cfg.timeout = 42 * kMillisecond;
    EXPECT_EQ(effective_timeout(cfg), 42 * kMillisecond);
}

// --------------------------------------------------------------- SeqRing --

TEST(SeqRing, ReadsBackEverySeqAtOrAboveTheFloor) {
    SeqTimeTable ring;
    EXPECT_EQ(ring.get(0), kNever);  // never written
    // A window of 8 sliding over 10^5 seqs: the live span stays exact.
    constexpr Seq kW = 8;
    for (Seq s = 0; s < 100'000; ++s) {
        const Seq floor = s >= kW ? s - kW + 1 : 0;
        ring.set(s, static_cast<SimTime>(3 * s), floor);
        for (Seq live = floor; live <= s; ++live) {
            ASSERT_EQ(ring.get(live), static_cast<SimTime>(3 * live)) << s << " " << live;
        }
    }
    // Long-retired seqs were overwritten: the ring never grew to the
    // message count, and stale reads come back empty, not aliased.
    EXPECT_EQ(ring.get(0), kNever);
    EXPECT_EQ(ring.get(50'000), kNever);
}

TEST(SeqRing, GrowsToTheSpanAndKeepsLiveEntries) {
    SeqTimeTable ring;
    // A floor that never moves (a backlog): every entry stays live.
    for (Seq s = 0; s < 1000; ++s) ring.set(s, static_cast<SimTime>(s + 1), 0);
    for (Seq s = 0; s < 1000; ++s) ASSERT_EQ(ring.get(s), static_cast<SimTime>(s + 1));
    // Overwrite and clear act on the exact seq only.
    ring.set(10, 77, 0);
    ring.clear(11);
    EXPECT_EQ(ring.get(10), 77);
    EXPECT_EQ(ring.get(11), kNever);
    EXPECT_EQ(ring.get(12), 13);
}

TEST(SeqRing, ForEachVisitsStoredValues) {
    SeqTimerTable ids;
    ids.set(4, 40, 0);
    ids.set(5, 50, 0);
    ids.clear(4);
    std::vector<TimerId> seen;
    ids.for_each([&](TimerId id) { seen.push_back(id); });
    EXPECT_EQ(seen, (std::vector<TimerId>{50}));
}

// --------------------------------------------------------------- SendHorizon --

/// A transmission log of first sends, message i at sent[i].
struct SentLog {
    SeqTimeTable last_tx;

    explicit SentLog(std::initializer_list<SimTime> sent) {
        Seq i = 0;
        for (const SimTime t : sent) last_tx.set(i++, t, 0);
    }
    TxView at(SimTime now, SimTime lifetime) const { return {now, lifetime, &last_tx}; }
};

TEST(SendHorizon, FreshHorizonNeverBlocks) {
    const SentLog log({});
    const SendHorizon h(4);
    EXPECT_EQ(h.blocked_until(0, true, log.at(0, 100)), 0);
    EXPECT_EQ(h.blocked_until(3, true, log.at(0, 100)), 0);
}

TEST(SendHorizon, CapsAtAckedSeqPlusWindowUntilCopyDies) {
    // w = 4, L = 50; message 3 left at t=50, so its copy lives until 100.
    const SentLog log({0, 10, 20, 50, 60, 70, 80});
    const SendHorizon h(4);
    EXPECT_EQ(h.blocked_until(7, true, log.at(90, 50)), 100);  // ns may not pass 3 + w
    EXPECT_LE(h.blocked_until(7, true, log.at(100, 50)), 100);  // copy provably dead
}

// The send of i + w waits until last_tx(i) + L and no longer: the cap
// expires on its own instant, not at the latest expiry noted since.
TEST(SendHorizon, SendOfIPlusWWaitsExactlyUntilItsCopyAgesOut) {
    constexpr SimTime kL = 250;
    const SentLog log({1'000, 1'010, 1'020, 1'030, 1'040, 1'050, 1'060, 1'070, 1'080, 1'090});
    const SendHorizon h(8);
    EXPECT_EQ(h.blocked_until(8, true, log.at(1'100, kL)), 1'000 + kL);
    EXPECT_EQ(h.blocked_until(9, true, log.at(1'100, kL)), 1'010 + kL);
    EXPECT_EQ(h.blocked_until(10, true, log.at(1'100, kL)), 1'020 + kL);
}

TEST(SendHorizon, EachCapLiftsAtItsOwnCopyGone) {
    // Messages 0..7 left 10 apart; L = 100, w = 4.  Acks for all of them
    // beat L, but each later send waits only for its own predecessor.
    const SentLog log({0, 10, 20, 30, 40, 50, 60, 70});
    SendHorizon h(4);
    for (Seq i = 0; i < 4; ++i) h.note_ack(i, /*ns=*/4, log.at(35, 100));
    const TxView at_105 = log.at(105, 100);
    EXPECT_LE(h.blocked_until(4, true, at_105), 105);   // 0's copy died at 100
    EXPECT_EQ(h.blocked_until(5, true, at_105), 110);   // 1's copy lives to 110
    EXPECT_EQ(h.blocked_until(7, true, at_105), 130);
}

TEST(SendHorizon, UnackedPredecessorCapsNothing) {
    // A hole-reusing sender can reach ns - w while it is still unacked:
    // only an acknowledged copy carries a cap.
    const SentLog log({0, 10, 20, 30, 40});
    const SendHorizon h(4);
    EXPECT_EQ(h.blocked_until(4, false, log.at(40, 100)), 0);
    EXPECT_EQ(h.blocked_until(4, true, log.at(40, 100)), 100);
}

// Hole reuse lets ns - na exceed w, so an ack can arrive for i after
// message i + w has left.  Every future send is >= i + w, so every one of
// them waits for the copy; messages sent before the ack are not recalled.
TEST(SendHorizon, LateAckUnderHoleReuseHoldsEveryFutureSend) {
    const SentLog log({0, 10, 20, 30, 40, 50, 60});
    SendHorizon h(4);
    h.note_ack(0, /*ns=*/7, log.at(60, 500));  // 4, 5, 6 already left: until 500
    EXPECT_EQ(h.blocked_until(7, false, log.at(60, 500)), 500);
    h.note_ack(1, /*ns=*/7, log.at(60, 200));  // an earlier expiry adds nothing
    EXPECT_EQ(h.blocked_until(7, false, log.at(60, 200)), 500);
    h.note_ack(3, /*ns=*/7, log.at(60, 500));  // ns == 3 + w: the send of 7 reads it
    EXPECT_EQ(h.blocked_until(7, true, log.at(60, 500)), 530);
}

TEST(SendHorizon, DeadCopyIsIgnored) {
    const SentLog log({0, 10, 20, 30, 40});
    SendHorizon h(4);
    h.note_ack(0, /*ns=*/5, log.at(60, 40));  // already gone at 40
    EXPECT_LE(h.blocked_until(5, true, log.at(60, 40)), 60);
    EXPECT_LE(h.blocked_until(100, true, log.at(60, 40)), 60);
}

}  // namespace
}  // namespace bacp::runtime
