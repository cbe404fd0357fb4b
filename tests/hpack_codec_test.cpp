// Encoder/decoder pair, including the RFC 7541 Appendix C.4 request series
// (our encoder's choices — indexed fields, incremental indexing, Huffman
// when shorter — match the RFC's example encoder exactly).
#include "h2priv/hpack/codec.hpp"

#include "h2priv/hpack/integer.hpp"

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"
#include "hex.hpp"

namespace h2priv::hpack {
namespace {

using h2priv::testing::from_hex;
using h2priv::testing::to_hex;

TEST(HpackCodec, Rfc7541C4_RequestSeries) {
  Encoder enc;
  Decoder dec;

  const HeaderList req1 = {
      {":method", "GET"}, {":scheme", "http"}, {":path", "/"},
      {":authority", "www.example.com"}};
  const util::Bytes b1 = enc.encode(req1);
  EXPECT_EQ(to_hex(b1), "828684418cf1e3c2e5f23a6ba0ab90f4ff");
  EXPECT_EQ(dec.decode(b1), req1);
  EXPECT_EQ(enc.table().entry_count(), 1u);
  EXPECT_EQ(enc.table().size(), 57u);

  const HeaderList req2 = {
      {":method", "GET"}, {":scheme", "http"}, {":path", "/"},
      {":authority", "www.example.com"}, {"cache-control", "no-cache"}};
  const util::Bytes b2 = enc.encode(req2);
  EXPECT_EQ(to_hex(b2), "828684be5886a8eb10649cbf");
  EXPECT_EQ(dec.decode(b2), req2);
  EXPECT_EQ(enc.table().entry_count(), 2u);

  const HeaderList req3 = {
      {":method", "GET"}, {":scheme", "https"}, {":path", "/index.html"},
      {":authority", "www.example.com"}, {"custom-key", "custom-value"}};
  const util::Bytes b3 = enc.encode(req3);
  EXPECT_EQ(to_hex(b3), "828785bf408825a849e95ba97d7f8925a849e95bb8e8b4bf");
  EXPECT_EQ(dec.decode(b3), req3);
  EXPECT_EQ(enc.table().entry_count(), 3u);
  EXPECT_EQ(enc.table().size(), 164u);
}

TEST(HpackCodec, DecoderHandlesNonHuffmanLiterals) {
  // RFC C.3.1: the same first request with raw (non-Huffman) literals.
  Decoder dec;
  const util::Bytes wire = from_hex("828684410f7777772e6578616d706c652e636f6d");
  const HeaderList out = dec.decode(wire);
  const HeaderList expect = {
      {":method", "GET"}, {":scheme", "http"}, {":path", "/"},
      {":authority", "www.example.com"}};
  EXPECT_EQ(out, expect);
  EXPECT_EQ(dec.table().entry_count(), 1u);
}

TEST(HpackCodec, RepeatHeadersCompressToOneByte) {
  Encoder enc;
  const HeaderList headers = {{"user-agent", "Mozilla/5.0 (sim)"}};
  const util::Bytes first = enc.encode(headers);
  const util::Bytes second = enc.encode(headers);
  EXPECT_GT(first.size(), 10u);
  EXPECT_EQ(second.size(), 1u) << "full match in dynamic table -> single indexed byte";
}

TEST(HpackCodec, SensitiveHeadersAreNeverIndexed) {
  // RFC 7541 §C.2.3: a peer's never-indexed literal (0001xxxx) with a
  // literal name. It decodes, and the decoder's dynamic table stays empty.
  Decoder dec;
  const util::Bytes wire = from_hex("100870617373776f726406736563726574");
  EXPECT_EQ(dec.decode(wire), (HeaderList{{"password", "secret"}}));
  EXPECT_EQ(dec.table().entry_count(), 0u);
}

TEST(HpackCodec, TableSizeUpdateEmittedAndApplied) {
  Encoder enc;
  Decoder dec;
  (void)dec.decode(enc.encode({{"x-first", "1"}}));
  (void)dec.decode(enc.encode({{"x-first", "1"}}));
  enc.resize_table(64);
  const util::Bytes wire = enc.encode({{"x-second", "2"}});
  // Starts with a table-size update (001xxxxx).
  EXPECT_EQ(wire[0] & 0xe0, 0x20);
  (void)dec.decode(wire);
  EXPECT_EQ(dec.table().capacity(), 64u);
}

TEST(HpackCodec, DecoderRejectsUpdateAboveLimit) {
  Decoder dec;
  dec.set_max_capacity(100);
  util::ByteWriter w;
  encode_integer(w, 0x20, 5, 200);
  EXPECT_THROW((void)dec.decode(w.view()), HpackError);
}

TEST(HpackCodec, DecoderRejectsUpdateAfterField) {
  Decoder dec;
  util::ByteWriter w;
  encode_integer(w, 0x80, 7, 2);   // :method GET
  encode_integer(w, 0x20, 5, 64);  // late table-size update
  EXPECT_THROW((void)dec.decode(w.view()), HpackError);
}

TEST(HpackCodec, DecoderRejectsIndexZero) {
  const util::Bytes wire = {0x80};
  Decoder dec;
  EXPECT_THROW((void)dec.decode(wire), HpackError);
}

TEST(HpackCodec, DecoderRejectsOutOfRangeIndex) {
  util::ByteWriter w;
  encode_integer(w, 0x80, 7, 100);  // beyond static + empty dynamic
  Decoder dec;
  EXPECT_THROW((void)dec.decode(w.view()), HpackError);
}

TEST(HpackCodec, DecoderRejectsTruncatedString) {
  util::ByteWriter w;
  encode_integer(w, 0x40, 6, 0);  // literal name follows
  w.u8(0x05);                     // claims 5 raw bytes
  w.bytes(std::string_view("ab"));
  Decoder dec;
  EXPECT_THROW((void)dec.decode(w.view()), HpackError);
}

TEST(HpackCodec, EvictionKeepsEncoderAndDecoderInSync) {
  Encoder enc(128);
  Decoder dec(128);
  for (int i = 0; i < 50; ++i) {
    const HeaderList headers = {
        {"x-header-" + std::to_string(i), "value-" + std::to_string(i)}};
    EXPECT_EQ(dec.decode(enc.encode(headers)), headers);
    EXPECT_EQ(dec.table().entry_count(), enc.table().entry_count());
    EXPECT_LE(enc.table().size(), 128u);
  }
}

TEST(HpackCodec, EmptyHeaderListRoundTrips) {
  Encoder enc;
  Decoder dec;
  EXPECT_TRUE(dec.decode(enc.encode({})).empty());
}

TEST(HpackCodec, EmptyValuesRoundTrip) {
  Encoder enc;
  Decoder dec;
  const HeaderList headers = {{"x-empty", ""}, {":authority", ""}};
  EXPECT_EQ(dec.decode(enc.encode(headers)), headers);
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomHeaderStreamsRoundTrip) {
  sim::Rng rng(GetParam());
  Encoder enc(static_cast<std::size_t>(rng.uniform_int(64, 8'192)));
  Decoder dec(65'536);

  const auto random_token = [&rng](int max_len) {
    static constexpr char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789-_./:;= ABCXYZ%";
    std::string s;
    const int len = static_cast<int>(rng.uniform_int(0, max_len));
    for (int i = 0; i < len; ++i) {
      s.push_back(kAlphabet[static_cast<std::size_t>(
          rng.uniform_int(0, sizeof(kAlphabet) - 2))]);
    }
    return s;
  };

  std::vector<HeaderList> history;
  for (int block = 0; block < 40; ++block) {
    HeaderList headers;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) {
      if (rng.chance(0.3) && !history.empty()) {
        // Repeat an earlier header to exercise table hits.
        const auto& old = history[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(history.size()) - 1))];
        headers.push_back(old[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(old.size()) - 1))]);
      } else {
        headers.push_back({"x-" + random_token(12), random_token(40)});
      }
    }
    EXPECT_EQ(dec.decode(enc.encode(headers)), headers);
    history.push_back(headers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
}  // namespace h2priv::hpack
