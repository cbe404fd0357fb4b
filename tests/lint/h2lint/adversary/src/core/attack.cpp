// h2lint fixture: the attack must not hold the opener of a TLS session.
// The member below must fire [adversary-plaintext].
#include "h2priv/core/attack.hpp"

namespace h2priv::core {

struct Peek {
  tls::OpenContext* opener = nullptr;
};

}  // namespace h2priv::core
