#include "h2priv/h2/frame.hpp"

#include <gtest/gtest.h>

#include "hex.hpp"

namespace h2priv::h2 {
namespace {

using h2priv::testing::to_bytes;
using h2priv::testing::to_hex;

template <class T>
T round_trip(const T& frame) {
  FrameDecoder dec;
  dec.feed(encode_frame(frame));
  const auto out = dec.next();
  EXPECT_TRUE(out.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*out));
  return std::get<T>(*out);
}

TEST(H2Frame, DataRoundTrip) {
  DataFrame f;
  f.stream_id = 5;
  f.data = util::patterned_bytes(1'000, 1);
  f.end_stream = true;
  const DataFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 5u);
  EXPECT_EQ(d.data, f.data);
  EXPECT_TRUE(d.end_stream);
}

TEST(H2Frame, DataWithPadding) {
  DataFrame f;
  f.stream_id = 3;
  f.data = util::patterned_bytes(100, 2);
  f.pad_length = 37;
  const util::Bytes wire = encode_frame(f);
  EXPECT_EQ(wire.size(), kFrameHeaderBytes + 1 + 100 + 37);
  const DataFrame d = round_trip(f);
  EXPECT_EQ(d.data, f.data);
  EXPECT_EQ(d.pad_length, 37);
}

TEST(H2Frame, EmptyDataEndStream) {
  DataFrame f;
  f.stream_id = 9;
  f.end_stream = true;
  const DataFrame d = round_trip(f);
  EXPECT_TRUE(d.data.empty());
  EXPECT_TRUE(d.end_stream);
}

TEST(H2Frame, HeadersRoundTrip) {
  HeadersFrame f;
  f.stream_id = 1;
  f.header_block = util::patterned_bytes(80, 3);
  f.end_stream = true;
  f.end_headers = true;
  const HeadersFrame d = round_trip(f);
  EXPECT_EQ(d.header_block, f.header_block);
  EXPECT_TRUE(d.end_stream);
  EXPECT_TRUE(d.end_headers);
  EXPECT_FALSE(d.has_priority);
}

TEST(H2Frame, HeadersWithPriority) {
  HeadersFrame f;
  f.stream_id = 7;
  f.header_block = util::patterned_bytes(10, 4);
  f.has_priority = true;
  f.stream_dependency = 3;
  f.exclusive = true;
  f.weight = 200;
  const HeadersFrame d = round_trip(f);
  EXPECT_TRUE(d.has_priority);
  EXPECT_EQ(d.stream_dependency, 3u);
  EXPECT_TRUE(d.exclusive);
  EXPECT_EQ(d.weight, 200);
}

TEST(H2Frame, PriorityRoundTrip) {
  PriorityFrame f{9, 5, false, 32};
  const PriorityFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 9u);
  EXPECT_EQ(d.stream_dependency, 5u);
  EXPECT_EQ(d.weight, 32);
}

TEST(H2Frame, RstStreamRoundTrip) {
  RstStreamFrame f{11, ErrorCode::kCancel};
  const RstStreamFrame d = round_trip(f);
  EXPECT_EQ(d.stream_id, 11u);
  EXPECT_EQ(d.error, ErrorCode::kCancel);
}

TEST(H2Frame, SettingsRoundTrip) {
  SettingsFrame f;
  f.settings = {{1, 8'192}, {4, 1'048'576}, {5, 32'768}};
  const SettingsFrame d = round_trip(f);
  ASSERT_EQ(d.settings.size(), 3u);
  EXPECT_EQ(d.settings[1].id, 4);
  EXPECT_EQ(d.settings[1].value, 1'048'576u);
  EXPECT_FALSE(d.ack);
}

TEST(H2Frame, SettingsAck) {
  SettingsFrame f;
  f.ack = true;
  const SettingsFrame d = round_trip(f);
  EXPECT_TRUE(d.ack);
  EXPECT_TRUE(d.settings.empty());
}

TEST(H2Frame, PushPromiseRoundTrip) {
  PushPromiseFrame f;
  f.stream_id = 1;
  f.promised_stream_id = 2;
  f.header_block = util::patterned_bytes(44, 5);
  const PushPromiseFrame d = round_trip(f);
  EXPECT_EQ(d.promised_stream_id, 2u);
  EXPECT_EQ(d.header_block, f.header_block);
}

TEST(H2Frame, PingRoundTrip) {
  PingFrame f;
  f.opaque = {1, 2, 3, 4, 5, 6, 7, 8};
  const PingFrame d = round_trip(f);
  EXPECT_EQ(d.opaque, f.opaque);
  EXPECT_FALSE(d.ack);
}

TEST(H2Frame, GoAwayRoundTrip) {
  GoAwayFrame f;
  f.last_stream_id = 41;
  f.error = ErrorCode::kEnhanceYourCalm;
  f.debug_data = to_bytes("calm down");
  const GoAwayFrame d = round_trip(f);
  EXPECT_EQ(d.last_stream_id, 41u);
  EXPECT_EQ(d.error, ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(d.debug_data, f.debug_data);
}

TEST(H2Frame, WindowUpdateRoundTrip) {
  const WindowUpdateFrame d = round_trip(WindowUpdateFrame{0, 1'000'000});
  EXPECT_EQ(d.stream_id, 0u);
  EXPECT_EQ(d.increment, 1'000'000u);
}

TEST(H2Frame, ContinuationRoundTrip) {
  ContinuationFrame f;
  f.stream_id = 13;
  f.header_block = util::patterned_bytes(20, 6);
  f.end_headers = true;
  const ContinuationFrame d = round_trip(f);
  EXPECT_EQ(d.header_block, f.header_block);
}

TEST(H2Frame, WireFormatMatchesRfcLayout) {
  // DATA, stream 1, END_STREAM, 3 payload bytes.
  DataFrame f;
  f.stream_id = 1;
  f.end_stream = true;
  f.data = {0xaa, 0xbb, 0xcc};
  EXPECT_EQ(to_hex(encode_frame(f)), "000003000100000001aabbcc");
}

TEST(H2FrameDecoder, HandlesArbitraryChunking) {
  DataFrame f;
  f.stream_id = 1;
  f.data = util::patterned_bytes(300, 7);
  const util::Bytes wire = encode_frame(f);
  FrameDecoder dec;
  // Feed one byte at a time.
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    dec.feed(util::BytesView(wire.data() + i, 1));
    EXPECT_FALSE(dec.next().has_value());
  }
  dec.feed(util::BytesView(wire.data() + wire.size() - 1, 1));
  const auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<DataFrame>(*out).data, f.data);
}

TEST(H2FrameDecoder, MultipleFramesInOneFeed) {
  util::Bytes wire = encode_frame(PingFrame{});
  const util::Bytes second = encode_frame(WindowUpdateFrame{0, 5});
  wire.insert(wire.end(), second.begin(), second.end());
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_TRUE(std::holds_alternative<PingFrame>(*dec.next()));
  EXPECT_TRUE(std::holds_alternative<WindowUpdateFrame>(*dec.next()));
  EXPECT_FALSE(dec.next().has_value());
}

TEST(H2FrameDecoder, RejectsUnknownFrameType) {
  util::ByteWriter w;
  w.u24(0);
  w.u8(0x77);
  w.u8(0);
  w.u32(0);
  FrameDecoder dec;
  dec.feed(w.view());
  EXPECT_THROW((void)dec.next(), FrameError);
}

TEST(H2FrameDecoder, RejectsOversizedFrame) {
  util::ByteWriter w;
  w.u24(kDefaultMaxFrameSize + 1);
  w.u8(0);
  w.u8(0);
  w.u32(1);
  FrameDecoder dec;
  dec.feed(w.view());
  EXPECT_THROW((void)dec.next(), FrameError);
}

TEST(H2FrameDecoder, RejectsMalformedFixedSizeFrames) {
  // RST_STREAM must be exactly 4 bytes.
  util::ByteWriter w;
  w.u24(5);
  w.u8(0x3);
  w.u8(0);
  w.u32(1);
  w.fill(5, 0);
  FrameDecoder dec;
  dec.feed(w.view());
  EXPECT_THROW((void)dec.next(), FrameError);
}

TEST(H2FrameDecoder, RejectsSettingsOnStream) {
  util::ByteWriter w;
  w.u24(0);
  w.u8(0x4);
  w.u8(0);
  w.u32(3);  // non-zero stream id
  FrameDecoder dec;
  dec.feed(w.view());
  EXPECT_THROW((void)dec.next(), FrameError);
}

TEST(H2FrameDecoder, RejectsZeroWindowIncrement) {
  util::ByteWriter w;
  w.u24(4);
  w.u8(0x8);
  w.u8(0);
  w.u32(1);
  w.u32(0);
  FrameDecoder dec;
  dec.feed(w.view());
  EXPECT_THROW((void)dec.next(), FrameError);
}

/// One frame from raw header fields and payload bytes.
util::Bytes raw_frame(FrameType type, std::uint8_t flags, const util::Bytes& payload) {
  util::ByteWriter w;
  w.u24(static_cast<std::uint32_t>(payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(flags);
  w.u32(1);
  w.bytes(payload);
  return w.take();
}

// Length fields a peer controls: every lie is a FrameError (RFC 7540 §6.1,
// §6.2, §6.6: PROTOCOL_ERROR), never a read past the payload.
TEST(H2FrameDecoder, ShortPaddedOrPrioritizedFramesAreFrameErrors) {
  const struct {
    const char* what;
    FrameType type;
    std::uint8_t flags;
    util::Bytes payload;
  } cases[] = {
      {"PADDED HEADERS, pad 5 in 1 byte", FrameType::kHeaders, kFlagPadded, {5}},
      {"PADDED HEADERS, no pad length", FrameType::kHeaders, kFlagPadded, {}},
      {"HEADERS with PRIORITY in 3 bytes", FrameType::kHeaders, kFlagPriority, {0, 0, 0}},
      {"PADDED HEADERS with PRIORITY, pad leaves 4 bytes",
       FrameType::kHeaders, kFlagPadded | kFlagPriority, {1, 0, 0, 0, 0, 0}},
      {"PUSH_PROMISE in 2 bytes", FrameType::kPushPromise, kFlagEndHeaders, {0, 2}},
      {"PADDED PUSH_PROMISE, pad 9 in 5 bytes",
       FrameType::kPushPromise, kFlagPadded, {9, 0, 0, 0, 2}},
      {"PADDED PUSH_PROMISE, pad leaves 3 bytes",
       FrameType::kPushPromise, kFlagPadded, {1, 0, 0, 2, 0}},
      {"PADDED DATA, no pad length", FrameType::kData, kFlagPadded, {}},
  };
  for (const auto& c : cases) {
    FrameDecoder dec;
    dec.feed(raw_frame(c.type, c.flags, c.payload));
    EXPECT_THROW((void)dec.next(), FrameError) << c.what;
  }
}

TEST(H2FrameDecoder, PaddedPushPromiseDropsItsPadding) {
  const util::Bytes block = to_bytes("hpack-block");
  util::Bytes payload{3, 0, 0, 0, 4};  // pad length 3, promised stream 4
  payload.insert(payload.end(), block.begin(), block.end());
  payload.insert(payload.end(), 3, 0);
  FrameDecoder dec;
  dec.feed(raw_frame(FrameType::kPushPromise, kFlagPadded | kFlagEndHeaders, payload));
  const auto frame = dec.next();
  ASSERT_TRUE(frame.has_value());
  const auto& pp = std::get<PushPromiseFrame>(*frame);
  EXPECT_EQ(pp.promised_stream_id, 4u);
  EXPECT_EQ(pp.header_block, block);
  EXPECT_TRUE(pp.end_headers);
}

TEST(H2Frame, TypeAndStreamAccessors) {
  EXPECT_EQ(frame_type(Frame{DataFrame{}}), FrameType::kData);
  EXPECT_EQ(frame_type(Frame{SettingsFrame{}}), FrameType::kSettings);
  DataFrame df;
  df.stream_id = 7;
  EXPECT_EQ(frame_stream_id(Frame{df}), 7u);
  EXPECT_EQ(frame_stream_id(Frame{PingFrame{}}), 0u);
}

}  // namespace
}  // namespace h2priv::h2
