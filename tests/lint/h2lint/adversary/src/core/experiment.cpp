// h2lint fixture: not an adversary file. The experiment wires the whole
// stack, sessions included, so nothing here may fire.
#include "h2priv/h2/frame.hpp"
#include "h2priv/tls/session.hpp"

namespace h2priv::core {

int sessions(const tls::Session* s) { return s != nullptr ? 1 : 0; }

}  // namespace h2priv::core
