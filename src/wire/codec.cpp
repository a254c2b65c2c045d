#include "wire/codec.hpp"

#include <utility>

#include "common/assert.hpp"
#include "wire/buffer.hpp"
#include "wire/crc32.hpp"

namespace bacp::wire {

const char* to_string(DecodeError err) {
    switch (err) {
        case DecodeError::TooShort: return "TooShort";
        case DecodeError::BadMagic: return "BadMagic";
        case DecodeError::BadVersion: return "BadVersion";
        case DecodeError::BadType: return "BadType";
        case DecodeError::Truncated: return "Truncated";
        case DecodeError::TrailingBytes: return "TrailingBytes";
        case DecodeError::BadCrc: return "BadCrc";
        case DecodeError::BadAckRange: return "BadAckRange";
        case DecodeError::Oversized: return "Oversized";
    }
    return "?";
}

namespace {

/// Appends the CRC of out[base..] -- the frame being appended, not any
/// earlier datagrams sharing the slab.
void append_crc(std::vector<std::uint8_t>& out, std::size_t base) {
    const std::uint32_t crc =
        crc32c(std::span<const std::uint8_t>(out.data() + base, out.size() - base));
    BufWriter writer(out);
    writer.put_u32(crc);
}

void put_header(BufWriter& writer, FrameType type, std::uint8_t flags, Seq stream,
                Conn conn) {
    const bool tagged = stream != kNoStream;
    writer.put_u8(kMagic);
    writer.put_u8(conn.tagged() ? kVersion2 : kVersion);
    writer.put_u8(static_cast<std::uint8_t>(type));
    writer.put_u8(tagged ? static_cast<std::uint8_t>(flags | kFlagStream) : flags);
    if (conn.tagged()) {
        writer.put_varint(conn.id);
        writer.put_varint(conn.epoch);
    }
    if (tagged) writer.put_varint(stream);
}

}  // namespace

void encode_data_to(std::vector<std::uint8_t>& out, Seq seq,
                    std::span<const std::uint8_t> payload, std::uint8_t flags, Seq stream,
                    Conn conn) {
    BACP_ASSERT_MSG(payload.size() <= kMaxPayload, "payload exceeds kMaxPayload");
    const std::size_t base = out.size();
    out.reserve(base + kMinFrameSize + payload.size() + 8);
    BufWriter writer(out);
    put_header(writer, FrameType::Data, flags, stream, conn);
    writer.put_varint(seq);
    writer.put_varint(payload.size());
    writer.put_bytes(payload);
    append_crc(out, base);
}

void encode_ack_to(std::vector<std::uint8_t>& out, Seq lo, Seq hi, std::uint8_t flags,
                   Seq stream, Conn conn) {
    BACP_ASSERT_MSG(lo <= hi, "ack encode with lo > hi");
    const std::size_t base = out.size();
    out.reserve(base + kMinFrameSize + 8);
    BufWriter writer(out);
    put_header(writer, FrameType::Ack, flags, stream, conn);
    writer.put_varint(lo);
    writer.put_varint(hi);
    append_crc(out, base);
}

void encode_nak_to(std::vector<std::uint8_t>& out, Seq seq, std::uint8_t flags, Seq stream,
                   Conn conn) {
    const std::size_t base = out.size();
    out.reserve(base + kMinFrameSize + 8);
    BufWriter writer(out);
    put_header(writer, FrameType::Nak, flags, stream, conn);
    writer.put_varint(seq);
    append_crc(out, base);
}

void encode_data_ack_to(std::vector<std::uint8_t>& out, Seq seq, Seq ack_lo, Seq ack_hi,
                        std::span<const std::uint8_t> payload, std::uint8_t flags,
                        Seq stream, Conn conn) {
    BACP_ASSERT_MSG(ack_lo <= ack_hi, "piggyback ack encode with lo > hi");
    BACP_ASSERT_MSG(payload.size() <= kMaxPayload, "payload exceeds kMaxPayload");
    const std::size_t base = out.size();
    out.reserve(base + kMinFrameSize + payload.size() + 16);
    BufWriter writer(out);
    put_header(writer, FrameType::DataAck, flags, stream, conn);
    writer.put_varint(seq);
    writer.put_varint(payload.size());
    writer.put_bytes(payload);
    writer.put_varint(ack_lo);
    writer.put_varint(ack_hi);
    append_crc(out, base);
}

std::vector<std::uint8_t> encode_data(Seq seq, std::span<const std::uint8_t> payload,
                                      std::uint8_t flags, Seq stream, Conn conn) {
    std::vector<std::uint8_t> out;
    encode_data_to(out, seq, payload, flags, stream, conn);
    return out;
}

std::vector<std::uint8_t> encode_ack(Seq lo, Seq hi, std::uint8_t flags, Seq stream,
                                     Conn conn) {
    std::vector<std::uint8_t> out;
    encode_ack_to(out, lo, hi, flags, stream, conn);
    return out;
}

std::vector<std::uint8_t> encode_nak(Seq seq, std::uint8_t flags, Seq stream, Conn conn) {
    std::vector<std::uint8_t> out;
    encode_nak_to(out, seq, flags, stream, conn);
    return out;
}

std::vector<std::uint8_t> encode_data_ack(Seq seq, Seq ack_lo, Seq ack_hi,
                                          std::span<const std::uint8_t> payload,
                                          std::uint8_t flags, Seq stream, Conn conn) {
    std::vector<std::uint8_t> out;
    encode_data_ack_to(out, seq, ack_lo, ack_hi, payload, flags, stream, conn);
    return out;
}

std::vector<std::uint8_t> encode_message(const proto::Message& msg, std::uint8_t flags) {
    if (const auto* data = std::get_if<proto::Data>(&msg)) {
        return encode_data(data->seq, {}, flags);
    }
    if (const auto* ack = std::get_if<proto::Ack>(&msg)) {
        return encode_ack(ack->lo, ack->hi, flags);
    }
    if (const auto* nak = std::get_if<proto::Nak>(&msg)) {
        return encode_nak(nak->seq, flags);
    }
    const auto& da = std::get<proto::DataAck>(msg);
    return encode_data_ack(da.data.seq, da.ack.lo, da.ack.hi, {}, flags);
}

ViewResult decode_view(std::span<const std::uint8_t> bytes) {
    if (bytes.size() < kMinFrameSize) return {DecodeError::TooShort};

    // CRC first: corrupted frames must be rejected before any field is
    // interpreted.
    const auto body = bytes.first(bytes.size() - 4);
    BufReader crc_reader(bytes.subspan(bytes.size() - 4));
    const std::uint32_t stored_crc = *crc_reader.get_u32();
    if (crc32c(body) != stored_crc) return {DecodeError::BadCrc};

    BufReader reader(body);
    const auto magic = reader.get_u8();
    if (!magic || *magic != kMagic) return {DecodeError::BadMagic};
    const auto version = reader.get_u8();
    if (!version || (*version != kVersion && *version != kVersion2)) {
        return {DecodeError::BadVersion};
    }
    const auto type = reader.get_u8();
    if (!type) return {DecodeError::Truncated};
    const auto flags = reader.get_u8();
    if (!flags) return {DecodeError::Truncated};

    FrameView view;
    view.flags = *flags;
    if (*version == kVersion2) {
        const auto conn_id = reader.get_varint();
        if (!conn_id) return {DecodeError::Truncated};
        const auto epoch = reader.get_varint();
        if (!epoch) return {DecodeError::Truncated};
        // A v2 header whose conn id is the untagged sentinel would
        // round-trip as a v1 frame; no conforming encoder emits it.
        if (*conn_id == kNoConnId) return {DecodeError::BadVersion};
        view.conn = Conn{*conn_id, *epoch};
    }
    if (*flags & kFlagStream) {
        const auto id = reader.get_varint();
        if (!id) return {DecodeError::Truncated};
        view.stream = *id;
    }

    switch (static_cast<FrameType>(*type)) {
        case FrameType::Data: {
            const auto seq = reader.get_varint();
            if (!seq) return {DecodeError::Truncated};
            const auto len = reader.get_varint();
            if (!len) return {DecodeError::Truncated};
            // Declared length is untrusted: bound it before it can size
            // a read or an allocation.
            if (*len > kMaxPayload || *len > bytes.size()) return {DecodeError::Oversized};
            const auto payload = reader.get_bytes(static_cast<std::size_t>(*len));
            if (!payload) return {DecodeError::Truncated};
            if (!reader.exhausted()) return {DecodeError::TrailingBytes};
            view.type = FrameType::Data;
            view.seq = *seq;
            view.payload = *payload;
            return {view};
        }
        case FrameType::Ack: {
            const auto lo = reader.get_varint();
            if (!lo) return {DecodeError::Truncated};
            const auto hi = reader.get_varint();
            if (!hi) return {DecodeError::Truncated};
            if (!reader.exhausted()) return {DecodeError::TrailingBytes};
            if (*lo > *hi) return {DecodeError::BadAckRange};
            view.type = FrameType::Ack;
            view.lo = *lo;
            view.hi = *hi;
            return {view};
        }
        case FrameType::Nak: {
            const auto seq = reader.get_varint();
            if (!seq) return {DecodeError::Truncated};
            if (!reader.exhausted()) return {DecodeError::TrailingBytes};
            view.type = FrameType::Nak;
            view.seq = *seq;
            return {view};
        }
        case FrameType::DataAck: {
            const auto seq = reader.get_varint();
            if (!seq) return {DecodeError::Truncated};
            const auto len = reader.get_varint();
            if (!len) return {DecodeError::Truncated};
            if (*len > kMaxPayload || *len > bytes.size()) return {DecodeError::Oversized};
            const auto payload = reader.get_bytes(static_cast<std::size_t>(*len));
            if (!payload) return {DecodeError::Truncated};
            const auto lo = reader.get_varint();
            if (!lo) return {DecodeError::Truncated};
            const auto hi = reader.get_varint();
            if (!hi) return {DecodeError::Truncated};
            if (!reader.exhausted()) return {DecodeError::TrailingBytes};
            if (*lo > *hi) return {DecodeError::BadAckRange};
            view.type = FrameType::DataAck;
            view.seq = *seq;
            view.lo = *lo;
            view.hi = *hi;
            view.payload = *payload;
            return {view};
        }
        default:
            return {DecodeError::BadType};
    }
}

namespace {

/// A successful result, the frame built straight inside it: moving a
/// DecodedFrame temporary in instead makes g++ 12 report the other
/// alternatives' payload vectors as maybe-uninitialized under the
/// sanitizers.
template <typename Frame>
DecodeResult decoded(Frame frame) {
    return DecodeResult{decltype(DecodeResult::value)(
        std::in_place_type<DecodedFrame>, std::in_place_type<Frame>, std::move(frame))};
}

}  // namespace

DecodeResult decode(std::span<const std::uint8_t> bytes) {
    const ViewResult parsed = decode_view(bytes);
    if (!parsed.ok()) return {parsed.error()};
    const FrameView& view = parsed.frame();
    switch (view.type) {
        case FrameType::Data: {
            DataFrame frame;
            frame.seq = view.seq;
            frame.flags = view.flags;
            frame.stream = view.stream;
            frame.conn = view.conn;
            frame.payload.assign(view.payload.begin(), view.payload.end());
            return decoded(std::move(frame));
        }
        case FrameType::Ack:
            return decoded(AckFrame{view.lo, view.hi, view.flags, view.stream, view.conn});
        case FrameType::Nak:
            return decoded(NakFrame{view.seq, view.flags, view.stream, view.conn});
        case FrameType::DataAck: {
            DataAckFrame frame;
            frame.seq = view.seq;
            frame.ack_lo = view.lo;
            frame.ack_hi = view.hi;
            frame.flags = view.flags;
            frame.stream = view.stream;
            frame.conn = view.conn;
            frame.payload.assign(view.payload.begin(), view.payload.end());
            return decoded(std::move(frame));
        }
    }
    return {DecodeError::BadType};  // unreachable: decode_view validated type
}

Seq stream_of(const DecodedFrame& frame) {
    return std::visit(
        [](const auto& f) { return (f.flags & kFlagStream) ? f.stream : kNoStream; }, frame);
}

Conn conn_of(const DecodedFrame& frame) {
    return std::visit([](const auto& f) { return f.conn; }, frame);
}

proto::Message to_message(const DecodedFrame& frame) {
    if (const auto* data = std::get_if<DataFrame>(&frame)) {
        return proto::Data{data->seq};
    }
    if (const auto* ack = std::get_if<AckFrame>(&frame)) {
        return proto::Ack{ack->lo, ack->hi};
    }
    if (const auto* nak = std::get_if<NakFrame>(&frame)) {
        return proto::Nak{nak->seq};
    }
    const auto& da = std::get<DataAckFrame>(frame);
    return proto::DataAck{proto::Data{da.seq}, proto::Ack{da.ack_lo, da.ack_hi}};
}

}  // namespace bacp::wire
