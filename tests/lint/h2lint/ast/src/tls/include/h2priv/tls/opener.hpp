// h2lint AST fixture: an alias of the record opener, declared outside the
// adversary's files. The alias itself is legal here; an adversary file's
// use of it is the violation the text engine cannot see.
#pragma once

namespace h2priv::tls {

class OpenContext {
 public:
  int records = 0;
};

}  // namespace h2priv::tls

namespace h2priv::core {

using Opener = tls::OpenContext;

}  // namespace h2priv::core
