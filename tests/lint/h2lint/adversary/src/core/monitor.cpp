// h2lint fixture: the monitor reads TCP segments and TLS record headers
// only. A comment naming tls::Session or "h2priv/h2/frame.hpp" is not
// code, and neither is the string below. Must produce no findings.
#include "h2priv/core/monitor.hpp"
#include "h2priv/tcp/segment.hpp"

namespace h2priv::core {

const char* monitor_label() { return "tls::OpenContext"; }

}  // namespace h2priv::core
