#include "h2priv/tls/record.hpp"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

namespace h2priv::tls {
namespace {

constexpr std::uint64_t kSecret = 0x1234;

TEST(TlsRecord, SealOpenRoundTrip) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(1'000, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  EXPECT_EQ(wire.size(), 1'000 + kHeaderBytes + kAeadOverhead);
  std::size_t consumed = 0;
  const auto rec = open.open_one(wire, consumed);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(rec.type, ContentType::kApplicationData);
  EXPECT_EQ(util::Bytes(rec.plaintext.begin(), rec.plaintext.end()), plaintext);
}

TEST(TlsRecord, BodyOnTheWireIsPlaintextThenTag) {
  SealContext seal(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(100, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  // Header, then the plaintext as it was, then the 16-byte tag: no cipher
  // stands between an observer and the body (h2lint's adversary-plaintext
  // rule keeps the adversary's code off it).
  ASSERT_EQ(wire.size(), kHeaderBytes + plaintext.size() + kAeadOverhead);
  const auto body = util::BytesView(wire).subspan(kHeaderBytes, plaintext.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), plaintext.begin()));
}

TEST(TlsRecord, OpenReturnsBodyInPlace) {
  SealContext seal(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(300, 8);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  {
    OpenContext open(kSecret, 0);
    std::size_t consumed = 0;
    const auto rec = open.open_one(wire, consumed);
    // The opened plaintext is the body where it lies in the caller's buffer.
    EXPECT_EQ(rec.plaintext.data(), wire.data() + kHeaderBytes);
    EXPECT_EQ(rec.plaintext.size(), plaintext.size());
  }
  // The tag is still checked over that body: one flipped tag byte fails.
  util::Bytes tampered = wire;
  tampered[kHeaderBytes + plaintext.size() + 3] ^= 0x10;
  OpenContext open(kSecret, 0);
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(tampered, consumed), TlsError);
}

TEST(TlsRecord, LargePlaintextChunksIntoMultipleRecords) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes plaintext = util::patterned_bytes(40'000, 2);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  // 40000 = 16384 + 16384 + 7232 -> 3 records.
  EXPECT_EQ(wire.size(), 40'000 + 3 * (kHeaderBytes + kAeadOverhead));
  EXPECT_EQ(seal.records_sealed(), 3u);

  util::Bytes reassembled;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    std::size_t consumed = 0;
    const auto rec =
        open.open_one(util::BytesView(wire.data() + pos, wire.size() - pos), consumed);
    reassembled.insert(reassembled.end(), rec.plaintext.begin(), rec.plaintext.end());
    pos += consumed;
  }
  EXPECT_EQ(reassembled, plaintext);
}

TEST(TlsRecord, SealedSizePredictsExactly) {
  SealContext seal(kSecret, 0);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{16'384},
                              std::size_t{16'385}, std::size_t{50'000}}) {
    SealContext fresh(kSecret, 0);
    EXPECT_EQ(
        fresh.seal(ContentType::kApplicationData, util::patterned_bytes(n, 3)).size(),
        SealContext::sealed_size(n))
        << "n=" << n;
  }
  (void)seal;
}

TEST(TlsRecord, TamperedCiphertextFailsAuthentication) {
  SealContext seal(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(64, 4));
  // One flipped bit anywhere after the header — body or any of the 16 tag
  // bytes — must fail authentication.
  for (std::size_t i = kHeaderBytes; i < wire.size(); ++i) {
    util::Bytes tampered = wire;
    tampered[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    OpenContext open(kSecret, 0);
    std::size_t consumed = 0;
    EXPECT_THROW((void)open.open_one(tampered, consumed), TlsError) << "byte " << i;
  }
}

TEST(TlsRecord, OutOfOrderOpenFailsAuthentication) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes first = seal.seal(ContentType::kApplicationData,
                                      util::patterned_bytes(8, 1));
  const util::Bytes second = seal.seal(ContentType::kApplicationData,
                                       util::patterned_bytes(8, 2));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(second, consumed), TlsError)
      << "record sequence numbers key the tag";
}

TEST(TlsRecord, WrongSecretFails) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret + 1, 0);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(8, 1));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, WrongDirectionDomainFails) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 1);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData,
                                     util::patterned_bytes(8, 1));
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, ParseHeaderExposesTypeAndLength) {
  SealContext seal(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kHandshake,
                                     util::patterned_bytes(100, 5));
  RecordHeader hdr{};
  ASSERT_TRUE(parse_header(wire, hdr));
  EXPECT_EQ(hdr.type, ContentType::kHandshake);
  EXPECT_EQ(hdr.ciphertext_len, 100 + kAeadOverhead);
}

TEST(TlsRecord, ParseHeaderNeedsFiveBytes) {
  RecordHeader hdr{};
  const util::Bytes four = {23, 3, 3, 0};
  EXPECT_FALSE(parse_header(four, hdr));
}

TEST(TlsRecord, ParseHeaderRejectsBadType) {
  RecordHeader hdr{};
  const util::Bytes bad = {99, 3, 3, 0, 10};
  EXPECT_THROW((void)parse_header(bad, hdr), TlsError);
}

TEST(TlsRecord, OpenTruncatedThrows) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  util::Bytes wire = seal.seal(ContentType::kApplicationData,
                               util::patterned_bytes(64, 4));
  wire.pop_back();
  std::size_t consumed = 0;
  EXPECT_THROW((void)open.open_one(wire, consumed), TlsError);
}

TEST(TlsRecord, EmptyPlaintextSealsOneRecord) {
  SealContext seal(kSecret, 0);
  OpenContext open(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kAlert, util::BytesView{});
  EXPECT_EQ(wire.size(), kHeaderBytes + kAeadOverhead);
  std::size_t consumed = 0;
  const auto rec = open.open_one(wire, consumed);
  EXPECT_TRUE(rec.plaintext.empty());
  EXPECT_EQ(rec.type, ContentType::kAlert);
}

// Scalar reference definition of the record tag: its polynomial half is
// h = h*K + w over the plaintext's little-endian 8-byte words, assembled a
// byte at a time and the last one zero-padded, then h = h*K + length. The
// body on the wire is the plaintext itself. The unrolled implementation must
// produce exactly these bytes.
std::uint64_t ref_mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t ref_h1(std::uint64_t seq) { return ref_mix(kSecret ^ 0x746167u ^ seq); }

std::uint64_t ref_poly(std::uint8_t domain, std::uint64_t seq, util::BytesView in) {
  constexpr std::uint64_t kK = 0xc2b2ae3d27d4eb4full;
  std::uint64_t h = ref_mix(ref_h1(seq) ^ domain);
  for (std::size_t at = 0; at < in.size(); at += 8) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 8 && at + i < in.size(); ++i) {
      word |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    }
    h = h * kK + word;
  }
  return h * kK + in.size();
}

std::uint64_t le64_at(util::BytesView b, std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[off + i]) << (i * 8);
  }
  return v;
}

// Checks one sealed record at the front of `wire` against the reference for
// plaintext `content` at sequence number `seq`; returns its wire size.
std::size_t expect_reference_record(util::BytesView wire, std::uint8_t domain,
                                    std::uint64_t seq, util::BytesView content) {
  RecordHeader hdr{};
  EXPECT_TRUE(parse_header(wire, hdr));
  EXPECT_EQ(std::size_t{hdr.ciphertext_len}, content.size() + kAeadOverhead);
  if (wire.size() < kHeaderBytes + content.size() + kAeadOverhead) {
    ADD_FAILURE() << "record truncated, len " << content.size();
    return wire.size();
  }
  const util::BytesView body = wire.subspan(kHeaderBytes, content.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), content.begin()))
      << "body, len " << content.size() << " seq " << seq;
  const std::uint64_t poly = ref_poly(domain, seq, content);
  const std::size_t tag_at = kHeaderBytes + content.size();
  EXPECT_EQ(le64_at(wire, tag_at + 8), poly) << "tag[8..16), seq " << seq;
  EXPECT_EQ(le64_at(wire, tag_at), ref_mix(ref_h1(seq) ^ poly)) << "tag[0..8)";
  return kHeaderBytes + hdr.ciphertext_len;
}

// Seals `plaintext` three times on one context (records seq 0, 1, 2, ...) and
// checks every record against the reference.
void expect_reference_stream(std::uint8_t domain, const util::Bytes& plaintext) {
  SealContext seal(kSecret, domain);
  std::uint64_t seq = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
    std::size_t pos = 0;
    std::size_t off = 0;
    do {
      const std::size_t chunk = std::min(plaintext.size() - off, kMaxPlaintext);
      const util::BytesView content = util::BytesView(plaintext).subspan(off, chunk);
      pos += expect_reference_record(util::BytesView(wire).subspan(pos), domain, seq++,
                                     content);
      off += chunk;
    } while (off < plaintext.size());
    EXPECT_EQ(pos, wire.size()) << "n=" << plaintext.size();
  }
}

TEST(TlsRecord, SealedBytesMatchPerByteReference) {
  constexpr std::size_t kLengths[] = {0, 1, 7, 8, 9, 16'383, 16'384, 40'000};
  for (const std::uint8_t domain : {std::uint8_t{0}, std::uint8_t{1}}) {
    for (const std::size_t n : kLengths) {
      expect_reference_stream(domain, util::patterned_bytes(n, 11));
    }
  }
}

TEST(TlsRecord, QuantizedRecordMatchesPerByteReference) {
  SealContext seal(kSecret, 1);
  seal.set_pad_bucket(512);
  const util::Bytes plaintext = util::patterned_bytes(1'000, 12);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  // content || 0x17 marker || zero filler up to the 1024-byte bucket.
  util::Bytes inner = plaintext;
  inner.push_back(0x17);
  inner.resize(1'024, 0);
  EXPECT_EQ(expect_reference_record(wire, 1, 0, inner), wire.size());
}

// Opens one record on a fresh context (domain 0, sequence number 0).
void open_fresh(const util::Bytes& wire) {
  OpenContext open(kSecret, 0);
  std::size_t consumed = 0;
  (void)open.open_one(wire, consumed);
}

TEST(TlsRecord, SwappedAdjacentBodyWordsFailAuthentication) {
  for (const std::size_t n : {std::size_t{64}, kMaxPlaintext}) {
    SealContext seal(kSecret, 0);
    const util::Bytes wire =
        seal.seal(ContentType::kApplicationData, util::patterned_bytes(n, 6));
    ASSERT_NO_THROW(open_fresh(wire));
    for (std::size_t word = 0; word + 1 < n / 8; word += (n == 64 ? 1 : 97)) {
      util::Bytes swapped = wire;
      const auto at = static_cast<std::ptrdiff_t>(kHeaderBytes + word * 8);
      std::swap_ranges(swapped.begin() + at, swapped.begin() + at + 8,
                       swapped.begin() + at + 8);
      EXPECT_THROW(open_fresh(swapped), TlsError)
          << "n=" << n << " words " << word << "," << word + 1;
    }
  }
}

TEST(TlsRecord, TruncatedBodyWithFixedLengthFailsAuthentication) {
  // A body ending in zero bytes: its zero-padded last word is the same
  // with or without them, so only the folded-in length tells them apart.
  util::Bytes plaintext = util::patterned_bytes(56, 7);
  plaintext.resize(64, 0);
  SealContext seal(kSecret, 0);
  const util::Bytes wire = seal.seal(ContentType::kApplicationData, plaintext);
  ASSERT_NO_THROW(open_fresh(wire));
  for (std::size_t drop = 1; drop <= 8; ++drop) {
    // Drop the last `drop` body bytes, keep the tag, fix the header length.
    util::Bytes cut(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(
                                                     kHeaderBytes + 64 - drop));
    cut.insert(cut.end(), wire.end() - static_cast<std::ptrdiff_t>(kAeadOverhead),
               wire.end());
    const std::size_t body = cut.size() - kHeaderBytes;
    cut[3] = static_cast<std::uint8_t>(body >> 8);
    cut[4] = static_cast<std::uint8_t>(body);
    EXPECT_THROW(open_fresh(cut), TlsError) << "dropped " << drop;
  }
}

}  // namespace
}  // namespace h2priv::tls
