// The test-support text <-> byte helpers (tests/support/hex.hpp).
#include "hex.hpp"

#include <gtest/gtest.h>

namespace h2priv::testing {
namespace {

using util::Bytes;

TEST(Hex, EncodesLowercase) {
  const Bytes data = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x0f};
  EXPECT_EQ(to_hex(data), "deadbeef000f");
}

TEST(Hex, EncodesEmpty) {
  EXPECT_EQ(to_hex(Bytes{}), "");
}

TEST(Hex, DecodesBothCases) {
  EXPECT_EQ(from_hex("DEADbeef"), (Bytes{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, RejectsOddLength) {
  EXPECT_THROW((void)from_hex("abc"), std::invalid_argument);
}

TEST(Hex, RejectsNonHex) {
  EXPECT_THROW((void)from_hex("zz"), std::invalid_argument);
  EXPECT_THROW((void)from_hex("0g"), std::invalid_argument);
}

TEST(Hex, RoundTrip) {
  const Bytes data = util::patterned_bytes(333, 9);
  EXPECT_EQ(from_hex(to_hex(data)), data);
}

TEST(ToBytes, ConvertsString) {
  const Bytes b = to_bytes("hi");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], 'h');
}

}  // namespace
}  // namespace h2priv::testing
