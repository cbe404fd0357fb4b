#include "h2priv/h2/frame.hpp"

#include "h2priv/util/narrow.hpp"

namespace h2priv::h2 {

namespace {

void write_header(util::ByteWriter& w, std::uint32_t length, FrameType type,
                  std::uint8_t flags, std::uint32_t stream_id) {
  // Every encoder computes its exact payload length before writing, so one
  // reservation here sizes the whole frame — no growth mid-encode.
  w.reserve(kFrameHeaderBytes + length);
  w.u24(length);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(flags);
  w.u32(stream_id & kMaxStreamId);
}

FrameHeader read_header(util::ByteReader& r) {
  FrameHeader h;
  h.length = r.u24();
  const std::uint8_t raw_type = r.u8();
  if (raw_type > 0x9) throw FrameError("unknown frame type " + std::to_string(raw_type));
  h.type = static_cast<FrameType>(raw_type);
  h.flags = r.u8();
  h.stream_id = r.u32() & kMaxStreamId;
  return h;
}

}  // namespace

void encode_data_into(util::ByteWriter& w, std::uint32_t stream_id, util::BytesView data,
                      bool end_stream, std::uint8_t pad_length) {
  std::uint8_t flags = end_stream ? kFlagEndStream : 0;
  std::uint32_t length = util::narrow<std::uint32_t>(data.size());
  if (pad_length > 0) {
    flags |= kFlagPadded;
    length += 1u + pad_length;
  }
  write_header(w, length, FrameType::kData, flags, stream_id);
  if (pad_length > 0) w.u8(pad_length);
  w.bytes(data);
  if (pad_length > 0) w.fill(pad_length, 0);
}

namespace {

struct Encoder {
  util::ByteWriter& w;

  void operator()(const DataFrame& f) {
    encode_data_into(w, f.stream_id, f.data, f.end_stream, f.pad_length);
  }

  void operator()(const HeadersFrame& f) {
    std::uint8_t flags = 0;
    if (f.end_stream) flags |= kFlagEndStream;
    if (f.end_headers) flags |= kFlagEndHeaders;
    std::uint32_t length = util::narrow<std::uint32_t>(f.header_block.size());
    if (f.has_priority) {
      flags |= kFlagPriority;
      length += 5;
    }
    write_header(w, length, FrameType::kHeaders, flags, f.stream_id);
    if (f.has_priority) {
      w.u32((f.exclusive ? 0x80000000u : 0u) | (f.stream_dependency & kMaxStreamId));
      w.u8(static_cast<std::uint8_t>(f.weight - 1));
    }
    w.bytes(f.header_block);
  }

  void operator()(const PriorityFrame& f) {
    write_header(w, 5, FrameType::kPriority, 0, f.stream_id);
    w.u32((f.exclusive ? 0x80000000u : 0u) | (f.stream_dependency & kMaxStreamId));
    w.u8(static_cast<std::uint8_t>(f.weight - 1));
  }

  void operator()(const RstStreamFrame& f) {
    write_header(w, 4, FrameType::kRstStream, 0, f.stream_id);
    w.u32(static_cast<std::uint32_t>(f.error));
  }

  void operator()(const SettingsFrame& f) {
    write_header(w, util::narrow<std::uint32_t>(f.settings.size() * 6),
                 FrameType::kSettings,
                 f.ack ? kFlagAck : 0, 0);
    for (const Setting& s : f.settings) {
      w.u16(s.id);
      w.u32(s.value);
    }
  }

  void operator()(const PushPromiseFrame& f) {
    const std::uint32_t length = util::narrow<std::uint32_t>(4 + f.header_block.size());
    write_header(w, length, FrameType::kPushPromise, f.end_headers ? kFlagEndHeaders : 0,
                 f.stream_id);
    w.u32(f.promised_stream_id & kMaxStreamId);
    w.bytes(f.header_block);
  }

  void operator()(const PingFrame& f) {
    write_header(w, 8, FrameType::kPing, f.ack ? kFlagAck : 0, 0);
    w.bytes(util::BytesView(f.opaque.data(), f.opaque.size()));
  }

  void operator()(const GoAwayFrame& f) {
    write_header(w, util::narrow<std::uint32_t>(8 + f.debug_data.size()),
                 FrameType::kGoAway, 0,
                 0);
    w.u32(f.last_stream_id & kMaxStreamId);
    w.u32(static_cast<std::uint32_t>(f.error));
    w.bytes(f.debug_data);
  }

  void operator()(const WindowUpdateFrame& f) {
    write_header(w, 4, FrameType::kWindowUpdate, 0, f.stream_id);
    w.u32(f.increment & kMaxStreamId);
  }

  void operator()(const ContinuationFrame& f) {
    write_header(w, util::narrow<std::uint32_t>(f.header_block.size()),
                 FrameType::kContinuation,
                 f.end_headers ? kFlagEndHeaders : 0, f.stream_id);
    w.bytes(f.header_block);
  }
};

/// Payload bytes left for a frame's own fields once its padding is set
/// aside. A PADDED frame (DATA, HEADERS, PUSH_PROMISE) opens with a pad
/// length, and padding that reaches past the payload is a PROTOCOL_ERROR
/// (RFC 7540 §6.1, §6.2, §6.6).
std::size_t unpadded_length(const FrameHeader& h, util::ByteReader& r,
                            std::uint8_t& pad, const char* type) {
  if ((h.flags & kFlagPadded) == 0) return h.length;
  if (h.length == 0) throw FrameError(std::string(type) + " too short for its pad length");
  pad = r.u8();
  if (pad + 1u > h.length) throw FrameError(std::string(type) + " padding exceeds length");
  return h.length - 1u - pad;
}

Frame decode_payload(const FrameHeader& h, util::ByteReader& r) {
  switch (h.type) {
    case FrameType::kData: {
      DataFrame f;
      f.stream_id = h.stream_id;
      f.end_stream = (h.flags & kFlagEndStream) != 0;
      const std::size_t data_len = unpadded_length(h, r, f.pad_length, "DATA");
      const auto body = r.bytes(data_len);
      f.data.assign(body.begin(), body.end());
      r.skip(f.pad_length);
      return f;
    }
    case FrameType::kHeaders: {
      HeadersFrame f;
      f.stream_id = h.stream_id;
      f.end_stream = (h.flags & kFlagEndStream) != 0;
      f.end_headers = (h.flags & kFlagEndHeaders) != 0;
      std::uint8_t pad = 0;
      std::size_t block_len = unpadded_length(h, r, pad, "HEADERS");
      if (h.flags & kFlagPriority) {
        if (block_len < 5) throw FrameError("HEADERS too short for its priority");
        f.has_priority = true;
        const std::uint32_t dep = r.u32();
        f.exclusive = (dep & 0x80000000u) != 0;
        f.stream_dependency = dep & kMaxStreamId;
        f.weight = static_cast<std::uint8_t>(r.u8() + 1);
        block_len -= 5;
      }
      const auto body = r.bytes(block_len);
      f.header_block.assign(body.begin(), body.end());
      r.skip(pad);
      return f;
    }
    case FrameType::kPriority: {
      if (h.length != 5) throw FrameError("PRIORITY length must be 5");
      PriorityFrame f;
      f.stream_id = h.stream_id;
      const std::uint32_t dep = r.u32();
      f.exclusive = (dep & 0x80000000u) != 0;
      f.stream_dependency = dep & kMaxStreamId;
      f.weight = static_cast<std::uint8_t>(r.u8() + 1);
      return f;
    }
    case FrameType::kRstStream: {
      if (h.length != 4) throw FrameError("RST_STREAM length must be 4");
      RstStreamFrame f;
      f.stream_id = h.stream_id;
      f.error = static_cast<ErrorCode>(r.u32());
      return f;
    }
    case FrameType::kSettings: {
      if (h.stream_id != 0) throw FrameError("SETTINGS on non-zero stream");
      if (h.length % 6 != 0) throw FrameError("SETTINGS length not a multiple of 6");
      SettingsFrame f;
      f.ack = (h.flags & kFlagAck) != 0;
      if (f.ack && h.length != 0) throw FrameError("SETTINGS ACK with payload");
      for (std::size_t i = 0; i < h.length / 6; ++i) {
        Setting s;
        s.id = r.u16();
        s.value = r.u32();
        f.settings.push_back(s);
      }
      return f;
    }
    case FrameType::kPushPromise: {
      PushPromiseFrame f;
      f.stream_id = h.stream_id;
      f.end_headers = (h.flags & kFlagEndHeaders) != 0;
      std::uint8_t pad = 0;
      const std::size_t rest = unpadded_length(h, r, pad, "PUSH_PROMISE");
      if (rest < 4) throw FrameError("PUSH_PROMISE too short for its promised id");
      f.promised_stream_id = r.u32() & kMaxStreamId;
      const auto body = r.bytes(rest - 4);
      f.header_block.assign(body.begin(), body.end());
      r.skip(pad);
      return f;
    }
    case FrameType::kPing: {
      if (h.length != 8) throw FrameError("PING length must be 8");
      PingFrame f;
      f.ack = (h.flags & kFlagAck) != 0;
      const auto body = r.bytes(8);
      std::copy(body.begin(), body.end(), f.opaque.begin());
      return f;
    }
    case FrameType::kGoAway: {
      if (h.length < 8) throw FrameError("GOAWAY too short");
      GoAwayFrame f;
      f.last_stream_id = r.u32() & kMaxStreamId;
      f.error = static_cast<ErrorCode>(r.u32());
      const auto body = r.bytes(h.length - 8);
      f.debug_data.assign(body.begin(), body.end());
      return f;
    }
    case FrameType::kWindowUpdate: {
      if (h.length != 4) throw FrameError("WINDOW_UPDATE length must be 4");
      WindowUpdateFrame f;
      f.stream_id = h.stream_id;
      f.increment = r.u32() & kMaxStreamId;
      if (f.increment == 0) throw FrameError("WINDOW_UPDATE with zero increment");
      return f;
    }
    case FrameType::kContinuation: {
      ContinuationFrame f;
      f.stream_id = h.stream_id;
      f.end_headers = (h.flags & kFlagEndHeaders) != 0;
      const auto body = r.bytes(h.length);
      f.header_block.assign(body.begin(), body.end());
      return f;
    }
  }
  throw FrameError("unreachable frame type");
}

}  // namespace

FrameType frame_type(const Frame& f) noexcept {
  return std::visit(
      [](const auto& v) -> FrameType {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, DataFrame>) return FrameType::kData;
        else if constexpr (std::is_same_v<T, HeadersFrame>) return FrameType::kHeaders;
        else if constexpr (std::is_same_v<T, PriorityFrame>) return FrameType::kPriority;
        else if constexpr (std::is_same_v<T,
                           RstStreamFrame>) return FrameType::kRstStream;
        else if constexpr (std::is_same_v<T, SettingsFrame>) return FrameType::kSettings;
        else if constexpr (std::is_same_v<T,
                           PushPromiseFrame>) return FrameType::kPushPromise;
        else if constexpr (std::is_same_v<T, PingFrame>) return FrameType::kPing;
        else if constexpr (std::is_same_v<T, GoAwayFrame>) return FrameType::kGoAway;
        else if constexpr (std::is_same_v<T,
                           WindowUpdateFrame>) return FrameType::kWindowUpdate;
        else return FrameType::kContinuation;
      },
      f);
}

std::uint32_t frame_stream_id(const Frame& f) noexcept {
  return std::visit(
      [](const auto& v) -> std::uint32_t {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, SettingsFrame> || std::is_same_v<T, PingFrame> ||
                      std::is_same_v<T, GoAwayFrame>) {
          return 0;
        } else {
          return v.stream_id;
        }
      },
      f);
}

void encode_frame_into(util::ByteWriter& w, const Frame& f) {
  std::visit(Encoder{w}, f);
}

util::Bytes encode_frame(const Frame& f) {
  util::ByteWriter w;
  encode_frame_into(w, f);
  return w.take();
}

std::optional<Frame> FrameDecoder::next() {
  if (buf_.size() < kFrameHeaderBytes) return std::nullopt;
  util::ByteReader header_reader(buf_.front(kFrameHeaderBytes));
  const FrameHeader h = read_header(header_reader);
  if (h.length > max_frame_size_) {
    throw FrameError("frame length " + std::to_string(h.length) +
                     " exceeds max frame size");
  }
  if (buf_.size() < kFrameHeaderBytes + h.length) return std::nullopt;
  const util::BytesView whole = buf_.front(kFrameHeaderBytes + h.length);
  util::ByteReader payload_reader(whole.subspan(kFrameHeaderBytes));
  Frame frame = decode_payload(h, payload_reader);
  if (!payload_reader.done()) throw FrameError("trailing bytes in frame payload");
  buf_.pop(kFrameHeaderBytes + h.length);
  return frame;
}

}  // namespace h2priv::h2
