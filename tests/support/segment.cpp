#include "segment.hpp"

namespace h2priv::testing {

util::SharedBytes wire_segment(const tcp::SegmentView& s) {
  util::ByteWriter w(tcp::kHeaderBytes + s.payload.size());
  tcp::encode_segment(w, s);
  return w.take_shared();
}

void deliver_rst(tcp::Connection& conn) {
  tcp::SegmentView rst;
  rst.flags = tcp::kFlagRst;
  conn.on_wire(wire_segment(rst));
}

}  // namespace h2priv::testing
