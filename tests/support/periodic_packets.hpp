// A long packet stream whose six .h2t columns repeat with short periods, so
// every column block codes (none is stored). 150,000 packets fill 23 coded
// packet blocks, the multi-block input the writer and reader tests share.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "h2priv/analysis/observation.hpp"

namespace h2priv::testing {

[[nodiscard]] inline std::vector<analysis::PacketObservation> periodic_packets(int n) {
  std::vector<analysis::PacketObservation> out;
  std::int64_t t = 0;
  std::array<std::uint64_t, 2> seq{1'000, 9'000};
  for (int i = 0; i < n; ++i) {
    analysis::PacketObservation p;
    t += 1'000 + 10 * (i % 5);
    p.time = util::TimePoint{t};
    p.dir = i % 3 == 2 ? net::Direction::kClientToServer
                       : net::Direction::kServerToClient;
    const auto d = static_cast<std::size_t>(p.dir);
    p.payload_len = static_cast<std::size_t>(200 * (i % 7));
    p.wire_size = 40 + static_cast<std::int64_t>(p.payload_len);
    p.seq = seq[d];
    p.ack = seq[1 - d];
    p.flags = 0x10;
    seq[d] += p.payload_len;
    out.push_back(p);
  }
  return out;
}

}  // namespace h2priv::testing
