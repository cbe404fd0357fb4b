// Whole-trace decoding for tests. Production code reads a .h2t trace lazily
// through capture::TraceFile and streams packets with a PacketCursor; tests
// that want everything at once — round trips against written data, or
// hostile images pushed through every decoder — drain the same accessors
// here instead of through a read-everything reader.
#pragma once

#include <optional>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/capture/trace_view.hpp"

namespace h2priv::testing {

/// Every packet the trace's cursor yields, in capture order.
[[nodiscard]] std::vector<analysis::PacketObservation> drain_packets(
    const capture::TraceFile& trace);

struct DecodedTrace {
  std::vector<analysis::PacketObservation> packets;
  std::vector<analysis::RecordObservation> records_c2s;
  std::vector<analysis::RecordObservation> records_s2c;
  std::optional<analysis::GroundTruth> truth;
  std::optional<capture::TraceSummary> summary;
  std::vector<capture::FleetConn> fleet;  ///< empty unless kFleet is present
  std::optional<capture::ConnIdColumns> conn_ids;
};

/// Decodes every section the trace carries: the packets, both record
/// sections, ground truth and summary, plus kFleet and kConnIds when
/// present. Throws TraceError on the first malformed section.
[[nodiscard]] DecodedTrace decode_all(const capture::TraceFile& trace);

}  // namespace h2priv::testing
