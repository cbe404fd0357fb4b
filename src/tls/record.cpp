#include "h2priv/tls/record.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/narrow.hpp"

namespace h2priv::tls {

namespace {

std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Keystream: byte i of a record is XORed with byte (i % 8) of
/// mix(secret ^ domain<<56 ^ seq*golden ^ i/8), i.e. each 8-byte block of
/// the record is XORed with one little-endian mix() word (records always
/// start at block offset 0). src == dst is allowed.
void keystream_xor(std::uint64_t secret, std::uint8_t domain, std::uint64_t seq,
                   const std::uint8_t* src, std::uint8_t* dst, std::size_t n) noexcept {
  const std::uint64_t base = secret ^ (static_cast<std::uint64_t>(domain) << 56) ^
                             (seq * 0x9e3779b97f4a7c15ull);
  std::size_t i = 0;
  for (; n - i >= 8; i += 8) {
    util::store_le64(dst + i, util::load_le64(src + i) ^ mix(base ^ (i / 8)));
  }
  if (i < n) {
    std::uint64_t block = mix(base ^ (i / 8));
    for (; i < n; ++i, block >>= 8) dst[i] = static_cast<std::uint8_t>(src[i] ^ block);
  }
}

/// Keyed polynomial checksum of the plaintext: h = h*31 + b over every byte,
/// unrolled 8 bytes per step (the eight product terms are independent, so
/// this runs at memory speed where the per-byte form is latency-bound on the
/// multiply).
std::uint64_t poly_checksum(std::uint64_t h, util::BytesView plaintext) noexcept {
  constexpr std::uint64_t kP = 31;
  constexpr std::uint64_t kP2 = kP * kP, kP3 = kP2 * kP, kP4 = kP3 * kP;
  constexpr std::uint64_t kP5 = kP4 * kP, kP6 = kP5 * kP, kP7 = kP6 * kP, kP8 = kP7 * kP;
  const std::uint8_t* b = plaintext.data();
  std::size_t n = plaintext.size();
  for (; n >= 8; n -= 8, b += 8) {
    h = h * kP8 + b[0] * kP7 + b[1] * kP6 + b[2] * kP5 + b[3] * kP4 + b[4] * kP3 +
        b[5] * kP2 + b[6] * kP + b[7];
  }
  while (n-- > 0) h = h * kP + *b++;
  return h;
}

/// 16-byte keyed tag over the plaintext. With h1 = mix(secret ^ "tag" ^ seq)
/// and poly = the polynomial checksum seeded with mix(h1 ^ domain), bytes
/// 8..15 are poly and bytes 0..7 are mix(h1 ^ poly), both little-endian.
/// One pass over the bytes plus three mix() calls per record; open_one
/// recomputes and compares all 16 bytes. A checksum, not a MAC — it catches
/// corruption, reordering, replay and wrong keys, not a forger.
std::array<std::uint8_t, kAeadOverhead> compute_tag(std::uint64_t secret,
                                                    std::uint8_t domain,
                                                    std::uint64_t seq,
                                                    util::BytesView plaintext) noexcept {
  const std::uint64_t h1 = mix(secret ^ 0x746167u ^ seq);  // "tag"
  const std::uint64_t poly = poly_checksum(mix(h1 ^ domain), plaintext);
  std::array<std::uint8_t, kAeadOverhead> tag{};
  util::store_le64(tag.data(), mix(h1 ^ poly));
  util::store_le64(tag.data() + 8, poly);
  return tag;
}

ContentType check_type(std::uint8_t raw) {
  switch (raw) {
    case 20: return ContentType::kChangeCipherSpec;
    case 21: return ContentType::kAlert;
    case 22: return ContentType::kHandshake;
    case 23: return ContentType::kApplicationData;
    default: throw TlsError("invalid TLS content type " + std::to_string(raw));
  }
}

}  // namespace

void SealContext::seal_into(util::ByteWriter& w, ContentType type,
                            util::BytesView plaintext) {
  w.reserve(sealed_size(plaintext.size()));
  // Record quantization applies to application data only — the handshake
  // preamble must keep its recognizable flight sizes.
  const bool quantize = pad_bucket_ > 0 && type == ContentType::kApplicationData;
  // Quantized chunks leave one byte of headroom for the content marker.
  const std::size_t chunk_limit = quantize ? kMaxPlaintext - 1 : kMaxPlaintext;
  std::size_t off = 0;
  std::array<std::uint8_t, kMaxPlaintext> scratch;
  std::array<std::uint8_t, kMaxPlaintext> padded;
  do {
    const std::size_t chunk = std::min(plaintext.size() - off, chunk_limit);
    util::BytesView piece = plaintext.subspan(off, chunk);
    std::size_t content_len = chunk;
    if (quantize) {
      // TLS 1.3-style inner framing: content || 0x17 marker || zero filler,
      // rounded up to the bucket (capped at the record-size limit).
      const std::size_t rem = (chunk + 1) % pad_bucket_;
      content_len =
          std::min(chunk + 1 + (rem == 0 ? 0 : pad_bucket_ - rem), kMaxPlaintext);
      std::copy(piece.begin(), piece.end(), padded.begin());
      padded[chunk] = 0x17;
      std::fill(padded.begin() + static_cast<std::ptrdiff_t>(chunk + 1),
                padded.begin() + static_cast<std::ptrdiff_t>(content_len), 0);
      piece = util::BytesView(padded.data(), content_len);
      obs::count(obs::Counter::kTlsPadBytesSealed, content_len - chunk);
    }
    const std::uint64_t seq = seq_++;

    w.u8(static_cast<std::uint8_t>(type));
    w.u16(kVersionTls12);
    w.u16(util::narrow<std::uint16_t>(content_len + kAeadOverhead));
    keystream_xor(secret_, domain_, seq, piece.data(), scratch.data(), content_len);
    w.bytes(util::BytesView(scratch.data(), content_len));
    const auto tag = compute_tag(secret_, domain_, seq, piece);
    w.bytes(util::BytesView(tag.data(), tag.size()));
    obs::count(obs::Counter::kTlsRecordsSealed);
    obs::sample(obs::Hist::kTlsRecordBytes, content_len);
    off += chunk;
  } while (off < plaintext.size());
}

util::Bytes SealContext::seal(ContentType type, util::BytesView plaintext) {
  util::ByteWriter w(sealed_size(plaintext.size()));
  seal_into(w, type, plaintext);
  return w.take();
}

util::SharedBytes SealContext::seal_shared(ContentType type, util::BytesView plaintext) {
  util::ByteWriter w(util::default_pool(), sealed_size(plaintext.size()));
  seal_into(w, type, plaintext);
  return w.take_shared();
}

std::size_t SealContext::sealed_size(std::size_t plaintext_len) noexcept {
  const std::size_t records =
      plaintext_len == 0 ? 1 : (plaintext_len + kMaxPlaintext - 1) / kMaxPlaintext;
  return plaintext_len + records * (kHeaderBytes + kAeadOverhead);
}

OpenContext::Record OpenContext::open_one(util::BytesView wire, std::size_t& consumed) {
  RecordHeader hdr{};
  if (!parse_header(wire, hdr)) throw TlsError("open_one: truncated header");
  if (wire.size() < kHeaderBytes +
      hdr.ciphertext_len) throw TlsError("open_one: truncated body");
  if (hdr.ciphertext_len < kAeadOverhead) throw TlsError("open_one: body below tag size");

  const std::uint64_t seq = seq_++;
  const std::size_t ptext_len = hdr.ciphertext_len - kAeadOverhead;
  util::Bytes plaintext(ptext_len);
  keystream_xor(secret_, domain_, seq, wire.data() + kHeaderBytes, plaintext.data(),
                ptext_len);
  // All 16 tag bytes are checked: corruption, reordering, replay, a wrong
  // secret or a wrong direction each fail here.
  const auto expect = compute_tag(secret_, domain_, seq, plaintext);
  if (!std::equal(expect.begin(), expect.end(), wire.begin() +
                  static_cast<std::ptrdiff_t>(kHeaderBytes + ptext_len))) {
    throw TlsError("open_one: authentication failure (corrupted or out-of-order record)");
  }
  consumed = kHeaderBytes + hdr.ciphertext_len;
  obs::count(obs::Counter::kTlsRecordsOpened);
  if (unpad_ && hdr.type == ContentType::kApplicationData) {
    // Quantized record: strip the zero filler down to the 0x17 marker. The
    // filler is authenticated, so a missing or wrong marker is hostile
    // input (a peer padding with garbage), not corruption.
    std::size_t end = plaintext.size();
    while (end > 0 && plaintext[end - 1] == 0) --end;
    if (end == 0 || plaintext[end - 1] != 0x17) {
      throw TlsError("open_one: quantized record has no content marker");
    }
    plaintext.resize(end - 1);
  }
  return Record{hdr.type, std::move(plaintext)};
}

bool parse_header(util::BytesView buf, RecordHeader& out) {
  if (buf.size() < kHeaderBytes) return false;
  out.type = check_type(buf[0]);
  const std::uint16_t version = static_cast<std::uint16_t>((buf[1] << 8) | buf[2]);
  if (version != kVersionTls12) throw TlsError("unsupported TLS version on wire");
  out.ciphertext_len = static_cast<std::uint16_t>((buf[3] << 8) | buf[4]);
  return true;
}

}  // namespace h2priv::tls
