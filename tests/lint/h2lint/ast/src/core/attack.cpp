// h2lint AST fixture: the alias canonically IS tls::OpenContext, so the
// member below must fire [adversary-plaintext] despite never naming it.
#include "h2priv/tls/opener.hpp"

namespace h2priv::core {

struct Peek {
  Opener opener;
};

int records(const Peek& p) { return p.opener.records; }

}  // namespace h2priv::core
