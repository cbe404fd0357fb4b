// TCP segment helpers for tests: wire bytes for hand-built segments, and the
// RST a broken path delivers.
#pragma once

#include "h2priv/tcp/connection.hpp"
#include "h2priv/tcp/segment.hpp"
#include "h2priv/util/buffer_pool.hpp"

namespace h2priv::testing {

/// `s` encoded with tcp::encode_segment into a heap buffer, ready for a
/// net::Packet or tcp::Connection::on_wire.
[[nodiscard]] util::SharedBytes wire_segment(const tcp::SegmentView& s);

/// Delivers a bare RST segment to `conn` through on_wire, as a peer that
/// gave up on the connection sends: `conn` closes with CloseReason::kReset.
void deliver_rst(tcp::Connection& conn);

}  // namespace h2priv::testing
