// Tests for the full-duplex session with piggybacked acknowledgments.

#include <gtest/gtest.h>

#include "link/duplex_session.hpp"
#include "wire/codec.hpp"

namespace bacp::link {
namespace {

using namespace bacp::literals;
using runtime::LinkSpec;

DuplexConfig symmetric(Seq count, double loss, std::uint64_t seed, bool piggyback) {
    DuplexConfig cfg;
    cfg.w = 8;
    cfg.count_a_to_b = count;
    cfg.count_b_to_a = count;
    cfg.piggyback = piggyback;
    cfg.ab_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.ba_link = loss > 0 ? LinkSpec::lossy(loss) : LinkSpec::lossless();
    cfg.seed = seed;
    return cfg;
}

// ------------------------------------------------------------ wire framing --

TEST(DataAckWire, RoundTrip) {
    const std::vector<std::uint8_t> payload{1, 2, 3};
    const auto frame = wire::encode_data_ack(5, 2, 4, payload, wire::kFlagBoundedSeq);
    const auto result = wire::decode(frame);
    ASSERT_TRUE(result.ok());
    const auto& da = std::get<wire::DataAckFrame>(result.frame());
    EXPECT_EQ(da.seq, 5u);
    EXPECT_EQ(da.ack_lo, 2u);
    EXPECT_EQ(da.ack_hi, 4u);
    EXPECT_EQ(da.payload, payload);
}

TEST(DataAckWire, MessageRoundTrip) {
    const proto::Message msg = proto::DataAck{proto::Data{9}, proto::Ack{1, 3}};
    const auto result = wire::decode(wire::encode_message(msg));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(wire::to_message(result.frame()), msg);
}

TEST(DataAckWire, CorruptionDetected) {
    auto frame = wire::encode_data_ack(1, 0, 0, {});
    frame[5] ^= 0x10;
    EXPECT_FALSE(wire::decode(frame).ok());
}

TEST(DataAckWire, ToString) {
    EXPECT_EQ(proto::to_string(proto::Message{proto::DataAck{proto::Data{7}, proto::Ack{2, 5}}}),
              "D+A(7;2,5)");
}

// --------------------------------------------------------------- transfers --

TEST(Duplex, LosslessSymmetricCompletes) {
    DuplexSession session(symmetric(500, 0.0, 1, true));
    const auto result = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(result.a_to_b.delivered, 500u);
    EXPECT_EQ(result.b_to_a.delivered, 500u);
    EXPECT_EQ(result.a_to_b.data_retx, 0u);
    EXPECT_EQ(result.b_to_a.data_retx, 0u);
    // Every delivery is timed against its first transmission at the peer.
    EXPECT_EQ(result.a_to_b.latency.count(), 500u);
    EXPECT_GE(result.b_to_a.latency.min(), 4 * kMillisecond);
}

TEST(Duplex, LossyBothDirectionsComplete) {
    DuplexSession session(symmetric(400, 0.1, 2, true));
    const auto result = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(result.a_to_b.delivered, 400u);
    EXPECT_EQ(result.b_to_a.delivered, 400u);
    EXPECT_GT(result.a_to_b.data_retx + result.b_to_a.data_retx, 0u);
}

TEST(Duplex, PiggybackingRidesAcksAndNeverCostsFrames) {
    DuplexSession with(symmetric(1000, 0.0, 3, true));
    const auto on = with.run();
    DuplexSession without(symmetric(1000, 0.0, 3, false));
    const auto off = without.run();
    ASSERT_TRUE(with.completed());
    ASSERT_TRUE(without.completed());
    EXPECT_GT(on.piggybacked, 0u);
    // Block acknowledgments already amortize ack frames heavily (the
    // held-ack batching), so riding trims only the remaining standalone
    // frames -- but it must never cost frames.
    const auto frames_on = on.frames_ab + on.frames_ba;
    const auto frames_off = off.frames_ab + off.frames_ba;
    EXPECT_LE(frames_on, frames_off) << "on=" << frames_on << " off=" << frames_off;
    // The headline economy: under symmetric bulk traffic the total frame
    // cost stays close to pure data (1 frame per message) -- the regime a
    // per-message-ack protocol reaches only at ~2 frames per message.
    const double per_msg = static_cast<double>(frames_on) /
                           static_cast<double>(on.a_to_b.delivered + on.b_to_a.delivered);
    EXPECT_LT(per_msg, 1.3);
}

TEST(Duplex, AsymmetricTrafficStillCompletes) {
    DuplexConfig cfg = symmetric(600, 0.05, 4, true);
    cfg.count_b_to_a = 30;  // mostly one-way: acks must still flush via timer
    DuplexSession session(cfg);
    const auto result = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(result.a_to_b.delivered, 600u);
    EXPECT_EQ(result.b_to_a.delivered, 30u);
    EXPECT_GT(result.standalone_acks, 0u) << "without reverse data, acks need frames";
}

TEST(Duplex, OneWayDegeneratesToUnidirectional) {
    DuplexConfig cfg = symmetric(300, 0.1, 5, true);
    cfg.count_b_to_a = 0;
    DuplexSession session(cfg);
    const auto result = session.run();
    EXPECT_TRUE(session.completed());
    EXPECT_EQ(result.a_to_b.delivered, 300u);
    EXPECT_EQ(result.b_to_a.delivered, 0u);
    EXPECT_EQ(result.piggybacked, 0u) << "no reverse data to ride on";
}

TEST(Duplex, DeterministicForSeed) {
    DuplexSession x(symmetric(300, 0.1, 6, true));
    const auto rx = x.run();
    DuplexSession y(symmetric(300, 0.1, 6, true));
    const auto ry = y.run();
    EXPECT_EQ(rx.a_to_b.end_time, ry.a_to_b.end_time);
    EXPECT_EQ(rx.frames_ab, ry.frames_ab);
    EXPECT_EQ(rx.piggybacked, ry.piggybacked);
}

class DuplexSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DuplexSeedSweep, ExactlyOnceBothWaysUnderLossAndReorder) {
    DuplexConfig cfg = symmetric(250, 0.15, GetParam(), true);
    cfg.ab_link.delay_lo = 1_ms;
    cfg.ab_link.delay_hi = 9_ms;
    cfg.ba_link.delay_lo = 1_ms;
    cfg.ba_link.delay_hi = 9_ms;
    DuplexSession session(cfg);
    const auto result = session.run();
    ASSERT_TRUE(session.completed()) << "seed=" << GetParam();
    EXPECT_EQ(result.a_to_b.delivered, 250u);
    EXPECT_EQ(result.b_to_a.delivered, 250u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplexSeedSweep, ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace bacp::link
