// h2lint fixture: the monitor's stream reassembler sits below frame
// decoding. The include below must fire [adversary-plaintext].
#pragma once

#include "h2priv/h2/frame.hpp"
#include "h2priv/tcp/reassembly.hpp"

namespace h2priv::analysis {

struct MonitorStream {};

}  // namespace h2priv::analysis
