// TCP segment wire format.
//
// The header mirrors real TCP's fields but uses 64-bit sequence numbers so a
// long simulation never has to reason about 32-bit wrap; everything an
// on-path adversary is allowed to read (ports, seq/ack, flags, window,
// payload length) is in the clear, exactly as with real TCP.
//
// Layout (big-endian, 28 bytes):
//   u16 src_port | u16 dst_port | u64 seq | u64 ack |
//   u8 flags | u8 reserved | u32 window | u16 payload_len
#pragma once

#include <cstdint>

#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

inline constexpr std::size_t kHeaderBytes = 28;

/// Flag bits (combinable).
enum : std::uint8_t {
  kFlagSyn = 0x01,
  kFlagAck = 0x02,
  kFlagFin = 0x04,
  kFlagRst = 0x08,
};

/// One segment's header fields plus a view of its payload: what peek()
/// parses off the wire (what an on-path observer reads; the payload is
/// still "encrypted" at the TLS layer) and what encode_segment() writes.
/// tcp::Connection fills the header fields and points `payload` at the send
/// buffer, so the payload is never copied on the transmit path.
struct SegmentView {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::uint32_t window = 0;
  util::BytesView payload;

  [[nodiscard]] bool syn() const noexcept { return (flags & kFlagSyn) != 0; }
  [[nodiscard]] bool has_ack() const noexcept { return (flags & kFlagAck) != 0; }
  [[nodiscard]] bool fin() const noexcept { return (flags & kFlagFin) != 0; }
  [[nodiscard]] bool rst() const noexcept { return (flags & kFlagRst) != 0; }
};
/// Throws util::OutOfBounds / std::invalid_argument on malformed input.
[[nodiscard]] SegmentView peek(util::BytesView wire);

/// Serialises header + payload into `w` with the exact wire size reserved.
void encode_segment(util::ByteWriter& w, const SegmentView& s);

}  // namespace h2priv::tcp
