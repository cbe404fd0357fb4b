// Huffman coding, validated against the RFC 7541 Appendix C test vectors
// (which only exercise the ASCII range our table reproduces exactly).
#include "h2priv/hpack/huffman.hpp"

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"
#include "hex.hpp"

namespace h2priv::hpack {
namespace {

using h2priv::testing::to_hex;

TEST(Huffman, Rfc7541C41_WwwExampleCom) {
  EXPECT_EQ(to_hex(huffman_encode("www.example.com")), "f1e3c2e5f23a6ba0ab90f4ff");
}

TEST(Huffman, Rfc7541C42_NoCache) {
  EXPECT_EQ(to_hex(huffman_encode("no-cache")), "a8eb10649cbf");
}

TEST(Huffman, Rfc7541C43_CustomKeyValue) {
  EXPECT_EQ(to_hex(huffman_encode("custom-key")), "25a849e95ba97d7f");
  EXPECT_EQ(to_hex(huffman_encode("custom-value")), "25a849e95bb8e8b4bf");
}

TEST(Huffman, Rfc7541C61_ResponseStrings) {
  EXPECT_EQ(to_hex(huffman_encode("302")), "6402");
  EXPECT_EQ(to_hex(huffman_encode("private")), "aec3771a4b");
  EXPECT_EQ(to_hex(huffman_encode("Mon, 21 Oct 2013 20:13:21 GMT")),
            "d07abe941054d444a8200595040b8166e082a62d1bff");
  EXPECT_EQ(to_hex(huffman_encode("https://www.example.com")),
            "9d29ad171863c78f0b97c8e9ae82ae43d3");
}

TEST(Huffman, Rfc7541C63_SecondResponse) {
  EXPECT_EQ(to_hex(huffman_encode("307")), "640eff");
}

TEST(Huffman, Rfc7541C64_Gzip) {
  EXPECT_EQ(to_hex(huffman_encode("gzip")), "9bd9ab");
}

TEST(Huffman, DecodeInvertsEncode) {
  for (const std::string s :
       {"", "a", "hello world", "/images/emblem-party-1.png",
        "Mozilla/5.0 (X11; Linux x86_64)", "0123456789", "UPPER lower 42!?"}) {
    EXPECT_EQ(huffman_decode(huffman_encode(s)), s);
  }
}

TEST(Huffman, EncodedSizeMatchesEncodeOutput) {
  for (const std::string s :
       {"", "x", "www.example.com", "a longer string, with punctuation."}) {
    EXPECT_EQ(huffman_encoded_size(s), huffman_encode(s).size());
  }
}

TEST(Huffman, TableIsPrefixFree) {
  const auto& table = huffman_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    for (std::size_t j = 0; j < table.size(); ++j) {
      if (i == j) continue;
      const HuffmanCode a = table[i];
      const HuffmanCode b = table[j];
      if (a.bits > b.bits) continue;
      // a must not be a prefix of b.
      EXPECT_NE(a.code, b.code >> (b.bits - a.bits))
          << "symbol " << i << " is a prefix of symbol " << j;
    }
  }
}

TEST(Huffman, AllSymbolsHaveCodes) {
  const auto& table = huffman_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_GT(table[i].bits, 0) << "symbol " << i;
    EXPECT_LE(table[i].bits, 30) << "symbol " << i;
  }
}

TEST(Huffman, NonAsciiOctetsRoundTrip) {
  std::string s;
  for (int i = 0; i < 256; ++i) s.push_back(static_cast<char>(i));
  EXPECT_EQ(huffman_decode(huffman_encode(s)), s);
}

TEST(Huffman, RejectsBadPadding) {
  // 'a' = 00011 (5 bits) followed by 0-padding instead of 1-padding.
  const util::Bytes bad = {0x18};  // 00011|000
  EXPECT_THROW((void)huffman_decode(bad), std::invalid_argument);
}

TEST(Huffman, AcceptsEosPadding) {
  // 'a' = 00011 followed by three 1-bits of padding.
  const util::Bytes good = {0x1f};  // 00011|111
  EXPECT_EQ(huffman_decode(good), "a");
}

class HuffmanFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanFuzz, RandomStringsRoundTrip) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::string s;
    const int len = static_cast<int>(rng.uniform_int(0, 300));
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    EXPECT_EQ(huffman_decode(huffman_encode(s)), s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanFuzz, ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace h2priv::hpack
