#include "h2priv/tcp/segment.hpp"

#include <gtest/gtest.h>

namespace h2priv::tcp {
namespace {

util::Bytes encode(const SegmentView& s) {
  util::ByteWriter w;
  encode_segment(w, s);
  return w.take();
}

util::Bytes copy(util::BytesView v) { return util::Bytes(v.begin(), v.end()); }

TEST(Segment, RoundTripsAllFields) {
  const util::Bytes payload = util::patterned_bytes(777, 4);
  SegmentView s;
  s.src_port = 49'152;
  s.dst_port = 443;
  s.seq = 0x1122334455667788ull;
  s.ack = 0x99aabbccddeeff00ull;
  s.flags = kFlagAck | kFlagFin;
  s.window = 262'144;
  s.payload = payload;

  const util::Bytes wire = encode(s);
  const SegmentView d = peek(wire);
  EXPECT_EQ(d.src_port, s.src_port);
  EXPECT_EQ(d.dst_port, s.dst_port);
  EXPECT_EQ(d.seq, s.seq);
  EXPECT_EQ(d.ack, s.ack);
  EXPECT_EQ(d.flags, s.flags);
  EXPECT_EQ(d.window, s.window);
  EXPECT_EQ(copy(d.payload), payload);
}

TEST(Segment, EncodedSizeIsHeaderPlusPayload) {
  const util::Bytes payload = util::patterned_bytes(100, 1);
  SegmentView s;
  s.payload = payload;
  EXPECT_EQ(encode(s).size(), kHeaderBytes + 100);
}

TEST(Segment, FlagAccessors) {
  SegmentView s;
  s.flags = kFlagSyn | kFlagAck;
  EXPECT_TRUE(s.syn());
  EXPECT_TRUE(s.has_ack());
  EXPECT_FALSE(s.fin());
  EXPECT_FALSE(s.rst());
}

TEST(Segment, DecodeRejectsLengthMismatch) {
  const util::Bytes payload = util::patterned_bytes(10, 1);
  SegmentView s;
  s.payload = payload;
  util::Bytes wire = encode(s);
  wire.push_back(0x00);  // trailing garbage
  EXPECT_THROW((void)peek(wire), std::invalid_argument);
  wire.resize(wire.size() - 3);  // truncated payload
  EXPECT_THROW((void)peek(wire), std::invalid_argument);
}

TEST(Segment, DecodeRejectsShortHeader) {
  const util::Bytes wire = util::patterned_bytes(10, 1);
  EXPECT_THROW((void)peek(wire), util::OutOfBounds);
}

TEST(Peek, ReadsHeaderWithoutCopy) {
  const util::Bytes payload = util::patterned_bytes(64, 2);
  SegmentView s;
  s.src_port = 1;
  s.dst_port = 2;
  s.seq = 42;
  s.ack = 43;
  s.flags = kFlagAck;
  s.window = 99;
  s.payload = payload;
  const util::Bytes wire = encode(s);
  const SegmentView v = peek(wire);
  EXPECT_EQ(v.seq, 42u);
  EXPECT_EQ(v.ack, 43u);
  EXPECT_EQ(v.flags, kFlagAck);
  EXPECT_EQ(v.window, 99u);
  EXPECT_EQ(v.payload.size(), 64u);
  EXPECT_EQ(v.payload.data(), wire.data() + kHeaderBytes) << "view must alias the wire";
}

class SegmentPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SegmentPayloadSweep, RoundTrip) {
  const util::Bytes payload = util::patterned_bytes(GetParam(), 9);
  SegmentView s;
  s.seq = GetParam();
  s.payload = payload;
  const util::Bytes wire = encode(s);
  EXPECT_EQ(copy(peek(wire).payload), payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SegmentPayloadSweep,
                         ::testing::Values(0, 1, 536, 1452, 9000, 65'000));

}  // namespace
}  // namespace h2priv::tcp
