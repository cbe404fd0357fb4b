// h2lint fixture: a deliberate exception waived in place with the shared
// lint:allow syntax. Must produce no findings.
#include "h2priv/core/controller.hpp"
#include "h2priv/h2/frame.hpp"  // lint:allow(adversary-plaintext)

namespace h2priv::core {

int control() { return 0; }

}  // namespace h2priv::core
