// LEB128 varints and zigzag signed mapping — the primitive the .h2t trace
// format is built on.
//
// Unsigned values go out as little-endian base-128 groups (7 payload bits
// per byte, high bit = continuation), so the small deltas that dominate a
// packet trace cost one byte. Signed deltas are zigzag-folded first
// (0,-1,1,-2,... -> 0,1,2,3,...) so values near zero stay short in both
// directions. All arithmetic is on uint64 with two's-complement wrapping,
// which makes sequence-number deltas safe even across the full 64-bit range.
#pragma once

#include <cstdint>

#include "h2priv/util/bytes.hpp"

namespace h2priv::capture {

/// Longest LEB128 encoding of a uint64 (ceil(64 / 7) groups).
inline constexpr std::size_t kMaxVarintBytes = 10;

inline void put_varint(util::ByteWriter& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(v));
}

/// Reads one varint; throws util::OutOfBounds on truncation and
/// std::invalid_argument on an over-long (> 10 byte) encoding.
[[nodiscard]] inline std::uint64_t get_varint(util::ByteReader& r) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    const std::uint8_t b = r.u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
  throw std::invalid_argument("varint: over-long encoding");
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);  // arithmetic shift: 0 or ~0
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void put_svarint(util::ByteWriter& w, std::int64_t v) {
  put_varint(w, zigzag(v));
}

[[nodiscard]] inline std::int64_t get_svarint(util::ByteReader& r) {
  return unzigzag(get_varint(r));
}

/// Two's-complement addition and subtraction without signed-overflow UB, for
/// the signed delta columns (times, wire overhead). The writer subtracts and
/// the reader adds back, so any int64 values round-trip, including hostile
/// ones a v1 trace hands to recompress; for a valid trace they equal plain
/// `a + b` and `a - b`.
[[nodiscard]] constexpr std::int64_t wrapping_add(std::int64_t a,
                                                  std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

[[nodiscard]] constexpr std::int64_t wrapping_sub(std::int64_t a,
                                                  std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

}  // namespace h2priv::capture
