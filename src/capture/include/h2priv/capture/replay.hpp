// Replay: feed a stored .h2t trace back through the live adversary pipeline
// (analysis::MonitorStream reassembly + record extraction inside
// core::TrafficMonitor, then core::ObjectPredictor) and recompute the full
// attack verdict offline.
//
// The trace stores no payload bytes — only TCP header fields and TLS record
// boundaries — so the byte stream each direction carried is *synthesized*:
// real 5-byte TLS headers are planted at the recorded stream offsets (bodies
// are zeros; the scanner never reads bodies) and, if the stream ends inside
// an unfinished record, a phantom header with an unreachable length keeps
// the scanner waiting exactly like the live partial record did. Feeding the
// recorded packets over that stream drives the reassembler through the same
// states as the live run — retransmissions, reordering and all — so the
// recomputed records, GET count, verdicts and DoM values are bit-identical.
//
// One engine does the feeding, for a stored trace (replay_into / replay) and
// for a demultiplexed fleet connection (replay_conn) alike: a first pass over
// the packets sizes each direction's stream, a second streams the packets
// through the monitor and synthesizes each payload into a reusable scratch
// buffer. Peak memory is O(records + one packet), never O(stream bytes).
//
// Scoring is not copied here: score_with_predictor calls core::score_run, the
// same verdict pass core::run_once runs live. Together with count_gets it
// also scores straight off stored record sections without any reassembly at
// all, which is the corpus pipeline's fast path (corpus::score_corpus).
#pragma once

#include <span>

#include "h2priv/capture/trace_format.hpp"
#include "h2priv/capture/trace_view.hpp"
#include "h2priv/core/monitor.hpp"
#include "h2priv/core/predictor.hpp"

namespace h2priv::capture {

struct ReplayResult {
  /// The verdict recomputed offline (same shape as the stored summary).
  TraceSummary summary;
  /// Recomputed record observations matched the stored sections exactly.
  bool records_match = true;
  /// Stored summary present and equal to the recomputed one.
  bool summary_matches = false;
};

/// Feeds every stored packet through `monitor` via synthesized payloads:
/// packets stream off the trace with a PacketCursor and each payload is
/// synthesized into a reusable scratch buffer. The monitor must be freshly
/// constructed (standalone ctor). Requires records sorted by stream offset
/// (what TraceWriter emits). Peak memory: O(records) + one packet payload.
/// Throws TraceError if the trace's streams cannot be synthesized faithfully.
void replay_into(const TraceFile& trace, core::TrafficMonitor& monitor);

/// Counts a stored client->server record sequence through the live
/// monitor's core::GetFilter. Equals the live monitor's get_count() whenever
/// the stored records match what reassembly would recompute.
[[nodiscard]] std::int64_t count_gets(
    std::span<const analysis::RecordObservation> c2s_records);

/// run_once's verdict recomputed offline: core::score_run over the site and
/// horizon `meta` describes, converted with summary_of (record.hpp). Shared by full
/// replay and records-direct scoring, where the predictor runs straight over
/// a stored server->client record section and count_gets recomputes the GET
/// count from the client->server one; for every trace whose stored records
/// are faithful (which replay()'s records_match verifies) both give the
/// same TraceSummary.
[[nodiscard]] TraceSummary score_with_predictor(const TraceMeta& meta,
                                                const analysis::GroundTruth& truth,
                                                const core::ObjectPredictor& predictor,
                                                std::uint64_t monitor_packets,
                                                std::int64_t monitor_gets);

/// Full offline pipeline: replay_into a fresh monitor, then score it with
/// score_with_predictor against the stored ground truth and metadata.
/// Requires ground truth (and uses the stored summary, when present, for the
/// fidelity cross-check). The monitor stores no packets, so peak memory
/// stays bounded regardless of trace length.
[[nodiscard]] ReplayResult replay(const TraceFile& trace);

/// One client connection demultiplexed out of a fleet trace. Observation
/// timestamps are rebased to client-local time (-start_offset_ns), and
/// `meta` is a synthesized single-connection view (client seed, party order
/// and horizon from the kFleet entry), so every single-connection replay and
/// scoring path applies to a demuxed connection unchanged.
struct DemuxedConn {
  TraceMeta meta;
  FleetConn info;
  std::vector<analysis::PacketObservation> packets;
  std::vector<analysis::RecordObservation> records_c2s;
  std::vector<analysis::RecordObservation> records_s2c;
};

/// Splits a fleet trace into per-connection observation streams via the
/// kConnIds columns. Throws TraceError if the trace is not a fleet trace or
/// any fleet/conn-id structure is malformed (out-of-range ids, column counts
/// disagreeing with the packet/record sections, ...).
[[nodiscard]] std::vector<DemuxedConn> demux_fleet(const TraceFile& trace);

/// Replays one demuxed connection through a fresh monitor and scores it —
/// the per-client analogue of replay(), on the same feed loop; the stored
/// per-connection summary is the fidelity cross-check. Throws TraceError if
/// the connection's streams cannot be synthesized faithfully (records out of
/// stream-offset order included).
[[nodiscard]] ReplayResult replay_conn(const DemuxedConn& conn);

/// Demultiplexes and replays every connection of a fleet trace, in
/// connection-id order.
[[nodiscard]] std::vector<ReplayResult> replay_fleet(const TraceFile& trace);

}  // namespace h2priv::capture
