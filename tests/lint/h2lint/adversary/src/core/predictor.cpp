// h2lint fixture: decoding a header block is reading plaintext. The
// include below must fire [adversary-plaintext].
#include "h2priv/core/predictor.hpp"
#include "h2priv/hpack/codec.hpp"

namespace h2priv::core {

int predict() { return 0; }

}  // namespace h2priv::core
