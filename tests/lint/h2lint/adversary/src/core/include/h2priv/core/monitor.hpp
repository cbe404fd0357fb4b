// h2lint fixture: an adversary header. The unqualified Session below
// (after a using-directive) must fire [adversary-plaintext].
#pragma once

namespace h2priv::core {

using namespace h2priv::tls;
void watch(const Session& session);

}  // namespace h2priv::core
