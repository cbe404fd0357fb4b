#include "h2priv/tcp/segment.hpp"

#include <stdexcept>

#include "h2priv/util/narrow.hpp"

namespace h2priv::tcp {

void encode_segment(util::ByteWriter& w, const SegmentView& s) {
  w.reserve(kHeaderBytes + s.payload.size());
  w.u16(s.src_port);
  w.u16(s.dst_port);
  w.u64(s.seq);
  w.u64(s.ack);
  w.u8(s.flags);
  w.u8(0);
  w.u32(s.window);
  w.u16(util::narrow<std::uint16_t>(s.payload.size()));
  w.bytes(s.payload);
}

SegmentView peek(util::BytesView wire) {
  util::ByteReader r(wire);
  SegmentView v;
  v.src_port = r.u16();
  v.dst_port = r.u16();
  v.seq = r.u64();
  v.ack = r.u64();
  v.flags = r.u8();
  r.skip(1);
  v.window = r.u32();
  const std::uint16_t len = r.u16();
  if (r.remaining() != len) {
    throw std::invalid_argument("tcp::peek: payload length mismatch");
  }
  v.payload = r.bytes(len);
  return v;
}

}  // namespace h2priv::tcp
