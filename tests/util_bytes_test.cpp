#include "h2priv/util/bytes.hpp"

#include <string>

#include <gtest/gtest.h>

namespace h2priv::util {
namespace {

TEST(ByteWriter, WritesBigEndianScalars) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x0102);
  w.u24(0x030405);
  w.u32(0x06070809);
  w.u64(0x0a0b0c0d0e0f1011ull);
  const Bytes out(w.view().begin(), w.view().end());
  const Bytes expect = {0xab, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                        0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11};
  EXPECT_EQ(out, expect);
}

TEST(ByteWriter, U24RejectsOutOfRange) {
  ByteWriter w;
  EXPECT_THROW(w.u24(1u << 24), std::invalid_argument);
  w.u24((1u << 24) - 1);  // max value fits
  EXPECT_EQ(w.size(), 3u);
}

TEST(ByteWriter, AppendsSpansAndStrings) {
  ByteWriter w;
  w.bytes(std::string_view("abc"));
  const Bytes tail = {0x01, 0x02};
  w.bytes(BytesView(tail.data(), tail.size()));
  w.fill(3, 0xee);
  EXPECT_EQ(w.size(), 8u);
  EXPECT_EQ(w.view()[0], 'a');
  EXPECT_EQ(w.view()[4], 0x02);
  EXPECT_EQ(w.view()[7], 0xee);
}

TEST(ByteWriter, TakeLeavesWriterEmpty) {
  ByteWriter w;
  w.u32(42);
  const Bytes taken = w.take();
  EXPECT_EQ(taken.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteReader, RoundTripsWriterOutput) {
  ByteWriter w;
  w.u8(7);
  w.u16(1000);
  w.u24(70000);
  w.u32(5'000'000);
  w.u64(1ull << 40);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 1000);
  EXPECT_EQ(r.u24(), 70'000u);
  EXPECT_EQ(r.u32(), 5'000'000u);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, ThrowsOnUnderflow) {
  const Bytes data = {0x01, 0x02};
  ByteReader r(data);
  EXPECT_THROW((void)r.u32(), OutOfBounds);
  EXPECT_EQ(r.position(), 0u) << "failed read must not consume";
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_THROW((void)r.u8(), OutOfBounds);
}

TEST(ByteReader, PeekDoesNotConsume) {
  const Bytes data = {0x42, 0x43};
  ByteReader r(data);
  EXPECT_EQ(r.peek_u8(), 0x42);
  EXPECT_EQ(r.peek_u8(), 0x42);
  EXPECT_EQ(r.u8(), 0x42);
  EXPECT_EQ(r.peek_u8(), 0x43);
}

TEST(ByteReader, BytesAndRestViews) {
  const Bytes data = {1, 2, 3, 4, 5};
  ByteReader r(data);
  const BytesView head = r.bytes(2);
  EXPECT_EQ(head[0], 1);
  EXPECT_EQ(head[1], 2);
  const BytesView rest = r.bytes(r.remaining());
  EXPECT_EQ(rest.size(), 3u);
  EXPECT_EQ(rest[2], 5);
  EXPECT_TRUE(r.done());
}

TEST(ByteReader, SkipAdvancesAndChecksBounds) {
  const Bytes data = {1, 2, 3};
  ByteReader r(data);
  r.skip(2);
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.skip(2), OutOfBounds);
}

// Every read primitive, at exactly enough bytes and at one byte short. The
// short read throws OutOfBounds saying what it needed and had, and consumes
// nothing: every hostile-input parser (tcp segments, h2 frames, HPACK, TLS
// headers, .h2t sections) relies on these inline checks.
TEST(ByteReader, EveryPrimitiveChecksBoundsAtTheEdge) {
  struct Primitive {
    const char* name;
    std::size_t need;
    std::size_t advance;  // bytes a successful read consumes
    void (*read)(ByteReader&);
  };
  const Primitive kPrimitives[] = {
      {"u8", 1, 1, [](ByteReader& r) { (void)r.u8(); }},
      {"peek_u8", 1, 0, [](ByteReader& r) { (void)r.peek_u8(); }},
      {"u16", 2, 2, [](ByteReader& r) { (void)r.u16(); }},
      {"u24", 3, 3, [](ByteReader& r) { (void)r.u24(); }},
      {"u32", 4, 4, [](ByteReader& r) { (void)r.u32(); }},
      {"u64", 8, 8, [](ByteReader& r) { (void)r.u64(); }},
      {"bytes(5)", 5, 5, [](ByteReader& r) { (void)r.bytes(5); }},
      {"skip(5)", 5, 5, [](ByteReader& r) { r.skip(5); }},
  };
  for (const Primitive& p : kPrimitives) {
    for (const std::size_t have : {p.need, p.need - 1}) {
      // One byte is consumed first, so "unchanged" is not just "zero".
      const Bytes data(1 + have, 0xa5);
      ByteReader r(data);
      (void)r.u8();
      if (have == p.need) {
        EXPECT_NO_THROW(p.read(r)) << p.name;
        EXPECT_EQ(r.position(), 1 + p.advance) << p.name;
        continue;
      }
      try {
        p.read(r);
        ADD_FAILURE() << p.name << " read past the end";
      } catch (const OutOfBounds& e) {
        std::string want = "ByteReader: need " + std::to_string(p.need);
        want += " bytes, have " + std::to_string(have);
        EXPECT_EQ(e.what(), want) << p.name;
      }
      EXPECT_EQ(r.position(), 1u) << p.name;
    }
  }
}

TEST(PatternedBytes, DeterministicPerTag) {
  const Bytes a = patterned_bytes(1024, 7);
  const Bytes b = patterned_bytes(1024, 7);
  const Bytes c = patterned_bytes(1024, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 1024u);
}

TEST(PatternedBytes, PrefixStability) {
  // A longer buffer starts with the shorter buffer of the same tag — at
  // every length, including those ending in a partial 8-byte word.
  const Bytes big = patterned_bytes(64, 3);
  for (std::size_t n = 0; n <= 64; ++n) {
    const Bytes small = patterned_bytes(n, 3);
    ASSERT_EQ(small.size(), n);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), big.begin())) << "n=" << n;
  }
}

TEST(PatternedBytes, WordsArePositionSensitive) {
  // No two 8-byte words repeat, so a reordered or duplicated run in transit
  // changes the reassembled payload.
  const Bytes b = patterned_bytes(64, 3);
  for (std::size_t i = 0; i < 64; i += 8) {
    for (std::size_t j = i + 8; j < 64; j += 8) {
      EXPECT_FALSE(std::equal(b.begin() + static_cast<std::ptrdiff_t>(i),
                              b.begin() + static_cast<std::ptrdiff_t>(i + 8),
                              b.begin() + static_cast<std::ptrdiff_t>(j)))
          << "words at " << i << " and " << j;
    }
  }
}

TEST(LittleEndian64, StoresLowByteFirstAtAnyAlignment) {
  for (std::size_t at = 0; at < 8; ++at) {
    std::uint8_t buf[16] = {};
    store_le64(buf + at, 0x0807060504030201ull);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(std::size_t{buf[at + i]}, i + 1) << "at " << at;
    }
    EXPECT_EQ(load_le64(buf + at), 0x0807060504030201ull);
  }
}

class ByteRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ByteRoundTrip, WriterReaderIdentity) {
  const std::size_t n = GetParam();
  const Bytes payload = patterned_bytes(n, static_cast<std::uint32_t>(n));
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(n));
  w.bytes(payload);
  ByteReader r(w.view());
  EXPECT_EQ(r.u32(), n);
  const BytesView body = r.bytes(n);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), body.begin()));
  EXPECT_TRUE(r.done());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ByteRoundTrip,
                         ::testing::Values(0, 1, 7, 255, 256, 4096, 65'536, 100'000));

}  // namespace
}  // namespace h2priv::util
