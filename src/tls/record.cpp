#include "h2priv/tls/record.hpp"

#include <algorithm>
#include <array>
#include <cstring>
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

/// Odd multiplier of the tag's word polynomial, and its powers for the
/// four-word unrolled step.
constexpr std::uint64_t kK = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kK2 = kK * kK, kK3 = kK2 * kK, kK4 = kK3 * kK;

/// The tag's word polynomial over a record body. Word k (bytes 8k..8k+7,
/// little-endian, the last partial word zero-padded) folds in as
/// h = h*K + w, then the body length does (h = h*K + n), so a zero-padded
/// tail never matches a longer body. Four words per step keep one multiply
/// per 32 bytes on the dependency chain: h*K^4 + w0*K^3 + w1*K^2 + w2*K + w3
/// is four steps of the recurrence.
std::uint64_t body_poly(std::uint64_t h, const std::uint8_t* body,
                        std::size_t n) noexcept {
  std::size_t i = 0;
  for (; n - i >= 32; i += 32) {
    const std::uint8_t* p = body + i;
    const std::uint64_t w0 = util::load_le64(p);
    const std::uint64_t w1 = util::load_le64(p + 8);
    const std::uint64_t w2 = util::load_le64(p + 16);
    const std::uint64_t w3 = util::load_le64(p + 24);
    h = h * kK4 + (w0 * kK3 + w1 * kK2 + w2 * kK + w3);
  }
  for (; n - i >= 8; i += 8) h = h * kK + util::load_le64(body + i);
  if (i < n) {
    std::array<std::uint8_t, 8> tail{};
    std::memcpy(tail.data(), body + i, n - i);
    h = h * kK + util::load_le64(tail.data());
  }
  return h * kK + n;
}

/// Per-record keys, both derived from the record sequence number.
struct RecordKeys {
  std::uint64_t h1;         ///< tag bytes 0..7 are mix(h1 ^ poly)
  std::uint64_t poly_seed;  ///< initial h of the word polynomial
};

RecordKeys record_keys(std::uint64_t secret, std::uint8_t domain,
                       std::uint64_t seq) noexcept {
  const std::uint64_t h1 = mix(secret ^ 0x746167u ^ seq);  // "tag"
  return {h1, mix(h1 ^ domain)};
}

/// 16-byte tag: bytes 8..15 are the word polynomial body_poly returned,
/// bytes 0..7 are mix(h1 ^ poly), both little-endian. open_one recomputes
/// and compares all 16 bytes. A checksum, not a MAC — it catches
/// corruption, reordering, replay and wrong keys, not a forger.
void store_tag(std::uint8_t* out, std::uint64_t h1, std::uint64_t poly) noexcept {
  util::store_le64(out, mix(h1 ^ poly));
  util::store_le64(out + 8, poly);
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
  do {
    const std::size_t chunk = std::min(plaintext.size() - off, chunk_limit);
    std::size_t content_len = chunk;
    if (quantize) {
      // TLS 1.3-style inner framing: content || 0x17 marker || zero filler,
      // rounded up to the bucket (capped at the record-size limit).
      const std::size_t rem = (chunk + 1) % pad_bucket_;
      content_len =
          std::min(chunk + 1 + (rem == 0 ? 0 : pad_bucket_ - rem), kMaxPlaintext);
    }
    const std::uint64_t seq = seq_++;

    w.u8(static_cast<std::uint8_t>(type));
    w.u16(kVersionTls12);
    w.u16(util::narrow<std::uint16_t>(content_len + kAeadOverhead));
    // The record body is the plaintext itself, padded in place when
    // quantized; the tag is folded over it where it lies.
    std::uint8_t* body = w.extend(content_len + kAeadOverhead);
    if (chunk > 0) std::memcpy(body, plaintext.data() + off, chunk);
    if (quantize) {
      body[chunk] = 0x17;
      std::memset(body + chunk + 1, 0, content_len - chunk - 1);
      obs::count(obs::Counter::kTlsPadBytesSealed, content_len - chunk);
    }
    const RecordKeys keys = record_keys(secret_, domain_, seq);
    store_tag(body + content_len, keys.h1, body_poly(keys.poly_seed, body, content_len));
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
  const std::uint8_t* body = wire.data() + kHeaderBytes;
  const RecordKeys keys = record_keys(secret_, domain_, seq);
  // All 16 tag bytes are checked: corruption, reordering, replay, a wrong
  // secret or a wrong direction each fail here.
  std::array<std::uint8_t, kAeadOverhead> expect{};
  store_tag(expect.data(), keys.h1, body_poly(keys.poly_seed, body, ptext_len));
  if (!std::equal(expect.begin(), expect.end(), body + ptext_len)) {
    throw TlsError("open_one: authentication failure (corrupted or out-of-order record)");
  }
  consumed = kHeaderBytes + hdr.ciphertext_len;
  obs::count(obs::Counter::kTlsRecordsOpened);
  std::size_t end = ptext_len;
  if (unpad_ && hdr.type == ContentType::kApplicationData) {
    // Quantized record: strip the zero filler down to the 0x17 marker. The
    // filler is authenticated, so a missing or wrong marker is hostile
    // input (a peer padding with garbage), not corruption.
    while (end > 0 && body[end - 1] == 0) --end;
    if (end == 0 || body[end - 1] != 0x17) {
      throw TlsError("open_one: quantized record has no content marker");
    }
    --end;
  }
  return Record{hdr.type, util::BytesView(body, end)};
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
