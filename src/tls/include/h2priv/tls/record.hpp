// TLS record layer model.
//
// Real record framing (5-byte header: type, version, length) around the
// plaintext body and a 16-byte keyed checksum tag, which stands in for AEAD
// expansion and integrity. An on-path observer sees exactly what tshark's
// `ssl.record.content_type` filter sees: type and length. No cipher keeps
// the adversary off the body; the h2lint rule `adversary-plaintext` does,
// by keeping its code from opening records or decoding frames (DESIGN.md
// §12). The tag catches transport bugs (corrupted, reordered or replayed
// records, wrong keys), not forgers. Sealing copies the body into place and
// folds its 8-byte words into a keyed word polynomial; opening checks the
// tag over the body where it lies (record.cpp documents the construction).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "h2priv/util/buffer_pool.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tls {

enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

inline constexpr std::size_t kHeaderBytes = 5;
inline constexpr std::size_t kMaxPlaintext = 16 * 1024;  // 2^14 (RFC 8446)
inline constexpr std::size_t kAeadOverhead = 16;         // tag bytes per record
inline constexpr std::uint16_t kVersionTls12 = 0x0303;

class TlsError : public std::runtime_error {
 public:
  explicit TlsError(const std::string& what) : std::runtime_error(what) {}
};

/// Seals plaintext into records / opens records back into plaintext. One
/// SealContext per (session, direction); record sequence numbers key the
/// tag so replayed or reordered records fail authentication.
class SealContext {
 public:
  SealContext(std::uint64_t session_secret, std::uint8_t direction_domain) noexcept
      : secret_(session_secret), domain_(direction_domain) {}

  /// Chunks plaintext into >= 1 records and returns their concatenated wire
  /// bytes. Empty plaintext produces a single empty record.
  [[nodiscard]] util::Bytes seal(ContentType type, util::BytesView plaintext);

  /// Same wire bytes as seal(), emitted into a pooled buffer — the hot-path
  /// variant used by tls::Session (the chunk recycles once the bytes are
  /// appended to the TCP send buffer).
  [[nodiscard]] util::SharedBytes seal_shared(ContentType type,
                                              util::BytesView plaintext);

  [[nodiscard]] std::uint64_t records_sealed() const noexcept { return seq_; }

  /// Wire overhead added when sealing `n` plaintext bytes in maximal records.
  [[nodiscard]] static std::size_t sealed_size(std::size_t plaintext_len) noexcept;

  /// Record quantization (defense layer): application-data records are
  /// padded to a multiple of `bucket` plaintext bytes before sealing, TLS
  /// 1.3 style — content, then a 0x17 marker, then zero filler — so the
  /// lengths in the 5-byte headers stop tracking object boundaries. The
  /// peer's OpenContext must have set_unpad(true). 0 = off (the default;
  /// wire bytes stay bit-identical to the undefended path). Handshake and
  /// alert records are never padded.
  void set_pad_bucket(std::size_t bucket) noexcept {
    pad_bucket_ = std::min(bucket, kMaxPlaintext);
  }
  [[nodiscard]] std::size_t pad_bucket() const noexcept { return pad_bucket_; }

 private:
  void seal_into(util::ByteWriter& w, ContentType type, util::BytesView plaintext);

  std::uint64_t secret_;
  std::uint8_t domain_;
  std::uint64_t seq_ = 0;
  std::size_t pad_bucket_ = 0;
};

class OpenContext {
 public:
  OpenContext(std::uint64_t session_secret, std::uint8_t direction_domain) noexcept
      : secret_(session_secret), domain_(direction_domain) {}

  struct Record {
    ContentType type;
    /// The record body (a quantized record's filler and marker stripped), a
    /// view into the `wire` bytes given to open_one(): valid while they are.
    util::BytesView plaintext;
  };

  /// Opens exactly one record from the front of `wire`; advances `consumed`.
  /// Throws TlsError on authentication failure or truncation. Checks the tag
  /// over the body in place: no copy, no per-record allocation.
  [[nodiscard]] Record open_one(util::BytesView wire, std::size_t& consumed);

  /// Expect quantized application-data records (peer seals with a pad
  /// bucket): strip the zero filler and 0x17 content marker after
  /// authentication. A quantized record with no marker is hostile input and
  /// throws TlsError.
  void set_unpad(bool unpad) noexcept { unpad_ = unpad; }

 private:
  std::uint64_t secret_;
  std::uint8_t domain_;
  std::uint64_t seq_ = 0;
  bool unpad_ = false;
};

/// Incremental record-boundary scanner over a (possibly partial) byte
/// stream. Used both by the receiving endpoint (to know when a full record
/// has arrived) and by the adversary's monitor (which can read only the
/// 5-byte headers). Stateless: give it a buffer, it tells you about the
/// complete records at the front.
struct RecordHeader {
  ContentType type;
  std::uint16_t ciphertext_len;  // record body length on the wire
};

/// Parses the header at the front of `buf`. Returns false if fewer than 5
/// bytes are available. Throws TlsError on an invalid content type.
[[nodiscard]] bool parse_header(util::BytesView buf, RecordHeader& out);

}  // namespace h2priv::tls
