// Text <-> byte helpers for tests: ASCII payloads and hex-spelled vectors.
#pragma once

#include <string>
#include <string_view>

#include "h2priv/util/bytes.hpp"

namespace h2priv::testing {

/// The bytes of `s` as they are (ASCII payloads).
[[nodiscard]] util::Bytes to_bytes(std::string_view s);

/// Lower-case hex rendering of a byte span ("deadbeef").
[[nodiscard]] std::string to_hex(util::BytesView data);

/// Parses lower/upper-case hex; throws std::invalid_argument on odd length or
/// non-hex characters.
[[nodiscard]] util::Bytes from_hex(std::string_view hex);

}  // namespace h2priv::testing
