#include "hex.hpp"

#include <stdexcept>

namespace h2priv::testing {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("from_hex: invalid hex character");
}

}  // namespace

util::Bytes to_bytes(std::string_view s) { return util::Bytes(s.begin(), s.end()); }

std::string to_hex(util::BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

util::Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) throw std::invalid_argument("from_hex: odd length");
  util::Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace h2priv::testing
