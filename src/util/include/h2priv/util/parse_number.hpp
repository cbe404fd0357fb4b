// The one command-line number parser, shared by h2priv_trace and the benches.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace h2priv::util {

/// `text` must be all decimal digits (no sign, no blanks, nothing after
/// them) and fit in T. Leaves `out` alone on failure.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

}  // namespace h2priv::util
