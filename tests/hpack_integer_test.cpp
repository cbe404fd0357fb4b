// RFC 7541 §5.1 / Appendix C.1 integer representation vectors.
#include "h2priv/hpack/integer.hpp"

#include <gtest/gtest.h>

#include "hex.hpp"

namespace h2priv::hpack {
namespace {

using h2priv::testing::from_hex;

util::Bytes enc(std::uint8_t flags, int prefix, std::uint64_t value) {
  util::ByteWriter w;
  encode_integer(w, flags, prefix, value);
  return w.take();
}

std::uint64_t dec(const util::Bytes& data, int prefix) {
  util::ByteReader r(data);
  return decode_integer(r, prefix);
}

TEST(HpackInteger, Rfc7541C11_TenWithFiveBitPrefix) {
  EXPECT_EQ(enc(0, 5, 10), from_hex("0a"));
  EXPECT_EQ(dec(from_hex("0a"), 5), 10u);
}

TEST(HpackInteger, Rfc7541C12_1337WithFiveBitPrefix) {
  EXPECT_EQ(enc(0, 5, 1337), from_hex("1f9a0a"));
  EXPECT_EQ(dec(from_hex("1f9a0a"), 5), 1337u);
}

TEST(HpackInteger, Rfc7541C13_42WithEightBitPrefix) {
  EXPECT_EQ(enc(0, 8, 42), from_hex("2a"));
  EXPECT_EQ(dec(from_hex("2a"), 8), 42u);
}

TEST(HpackInteger, FlagBitsPreserved) {
  EXPECT_EQ(enc(0x80, 7, 2), from_hex("82"));
  EXPECT_EQ(enc(0x40, 6, 0), from_hex("40"));
}

TEST(HpackInteger, BoundaryAtPrefixMax) {
  // With a 5-bit prefix, 30 fits inline; 31 needs a continuation byte.
  EXPECT_EQ(enc(0, 5, 30).size(), 1u);
  EXPECT_EQ(enc(0, 5, 31), from_hex("1f00"));
  EXPECT_EQ(dec(from_hex("1f00"), 5), 31u);
}

TEST(HpackInteger, LargeValuesRoundTrip) {
  for (const std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 255ull, 16'383ull,
                                1'000'000ull, (1ull << 32), (1ull << 56)}) {
    for (const int prefix : {1, 4, 5, 7, 8}) {
      const util::Bytes wire = enc(0, prefix, v);
      EXPECT_EQ(dec(wire, prefix), v) << "v=" << v << " prefix=" << prefix;
    }
  }
}

TEST(HpackInteger, DecodeRejectsTruncation) {
  const util::Bytes wire = from_hex("1f");  // continuation expected
  util::ByteReader r(wire);
  EXPECT_THROW((void)decode_integer(r, 5), util::OutOfBounds);
}

TEST(HpackInteger, DecodeRejectsOverflow) {
  // 5-bit prefix then 10 continuation bytes of 0xff.
  util::Bytes wire = from_hex("1f");
  for (int i = 0; i < 10; ++i) wire.push_back(0xff);
  wire.push_back(0x7f);
  util::ByteReader r(wire);
  EXPECT_THROW((void)decode_integer(r, 5), std::overflow_error);
}

TEST(HpackInteger, InvalidPrefixRejected) {
  util::ByteWriter w;
  EXPECT_THROW(encode_integer(w, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(encode_integer(w, 0, 9, 1), std::invalid_argument);
}

class IntegerSweep : public ::testing::TestWithParam<int> {};

TEST_P(IntegerSweep, ExhaustiveSmallValues) {
  const int prefix = GetParam();
  for (std::uint64_t v = 0; v < 2'000; ++v) {
    const util::Bytes wire = enc(0, prefix, v);
    EXPECT_EQ(dec(wire, prefix), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Prefixes, IntegerSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace h2priv::hpack
