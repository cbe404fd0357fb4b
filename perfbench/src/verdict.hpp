// The scored fields of one page load as canonical text: what the verdict
// oracle digests. Wire bytes and obs counters are left out on purpose, so an
// optimisation that keeps every verdict keeps every digest.
#pragma once

#include <bit>
#include <cstdio>
#include <string>

#include "h2priv/core/experiment.hpp"

namespace perfbench {

inline void append_outcome(std::string& out, const h2priv::core::ObjectOutcome& o) {
  char buf[160];
  std::snprintf(buf, sizeof buf, " %s:%zu:%016llx:%d%d%d%d", o.label.c_str(), o.true_size,
                o.primary_dom ? static_cast<unsigned long long>(
                                    std::bit_cast<std::uint64_t>(*o.primary_dom))
                              : 0xffffffffffffffffULL,
                o.serialized_primary ? 1 : 0, o.any_serialized_copy ? 1 : 0,
                o.identified ? 1 : 0, o.attack_success ? 1 : 0);
  out += buf;
}

[[nodiscard]] inline std::string verdict_text(const h2priv::core::RunResult& r) {
  std::string out = r.page_complete ? "complete" : "incomplete";
  out += r.broken ? " broken" : " intact";
  append_outcome(out, r.html);
  for (const h2priv::core::ObjectOutcome& o : r.emblems_by_position) append_outcome(out, o);
  out += " seq";
  for (const std::string& label : r.predicted_sequence) out += " " + label;
  out += " correct=" + std::to_string(r.sequence_positions_correct) + "\n";
  return out;
}

}  // namespace perfbench
