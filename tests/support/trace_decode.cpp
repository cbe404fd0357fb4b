#include "trace_decode.hpp"

namespace h2priv::testing {

std::vector<analysis::PacketObservation> drain_packets(const capture::TraceFile& trace) {
  std::vector<analysis::PacketObservation> out;
  analysis::PacketObservation p;
  for (capture::PacketCursor cursor = trace.packets(); cursor.next(p);) {
    out.push_back(p);
  }
  return out;
}

DecodedTrace decode_all(const capture::TraceFile& trace) {
  using capture::Section;
  DecodedTrace out;
  out.packets = drain_packets(trace);
  out.records_c2s = trace.records(net::Direction::kClientToServer);
  out.records_s2c = trace.records(net::Direction::kServerToClient);
  if (trace.has_section(Section::kGroundTruth)) out.truth = trace.ground_truth();
  if (trace.has_section(Section::kSummary)) out.summary = trace.summary();
  if (trace.has_section(Section::kFleet)) out.fleet = trace.fleet();
  if (trace.has_section(Section::kConnIds)) out.conn_ids = trace.conn_ids();
  return out;
}

}  // namespace h2priv::testing
