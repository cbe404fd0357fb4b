// .h2t v2 writer.
//
// Each compressible section is written as per-field column streams (see
// trace_codec.hpp). The writer keeps every column in memory, about 10 bytes
// per packet, and cuts it into kBlockBytes blocks as it fills; finish() codes
// every cut block of the trace in one pass, on the caller's workers, then
// writes the sections in a fixed order: packets, the uncompressed meta, TLS
// records per direction, ground truth, summary, the fleet sections, the
// uncompressed block index and the trailer table. Its callers feed it after
// the fact and already hold more than that per packet:
// capture::record_run from a finished run's observations, the fleet merger
// from every client's, recompress from a v1 trace.
//
// Everything is deterministic: block boundaries and disk order depend only
// on the stream byte counts, and each block is coded from a reset model, so
// re-encoding the same observations (live capture or a recompress of a v1
// file) produces byte-identical output at any worker count.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/capture/trace_codec.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/util/bytes.hpp"
#include "h2priv/util/parallel.hpp"

namespace h2priv::capture {

/// Row encoders shared by the single-connection sections (kGroundTruth /
/// kSummary) and the per-connection blobs inside a kFleet section. Returns
/// the instance count for the ground truth (its section count). Throws
/// TraceError if instance ids are not sequential.
std::uint64_t encode_ground_truth(util::ByteWriter& buf,
                                  const analysis::GroundTruth& truth);
void encode_summary(util::ByteWriter& buf, const TraceSummary& summary);

class TraceWriter {
 public:
  /// Opens `path` and writes the fixed header. Throws TraceError on I/O
  /// failure.
  TraceWriter(const std::string& path, TraceMeta meta);
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  /// Finishes the file if finish() was not called (errors swallowed — call
  /// finish() explicitly when you care).
  ~TraceWriter();

  /// Switches the writer into fleet mode: `conns` (one entry per client
  /// connection, index = connection id) is encoded into a kFleet section and
  /// every subsequent add_packet/add_record must carry a conn_id below
  /// conns.size(), recorded in the kConnIds columns. Must be called before
  /// the first observation; fleet traces take no global ground truth or
  /// summary (those live per connection in `conns`). Sets meta flag 0x40.
  void begin_fleet(const std::vector<FleetConn>& conns);

  /// Observations must arrive in capture order (the monitor's order).
  /// `conn_id` attributes the observation to a fleet connection; it must be
  /// 0 outside fleet mode (single-connection traces stay byte-identical).
  void add_packet(const analysis::PacketObservation& p, std::uint32_t conn_id = 0);
  void add_record(const analysis::RecordObservation& r, std::uint32_t conn_id = 0);

  void set_ground_truth(const analysis::GroundTruth& truth);
  void set_summary(const TraceSummary& summary);

  /// Codes every block on up to `parallelism` workers (the bytes do not
  /// depend on it), writes the sections, the block index and the trailer,
  /// closes the file, and bumps the capture.* and codec.blocks_* obs
  /// counters. Returns total file bytes. Idempotent.
  std::uint64_t finish(util::Parallelism parallelism = {});

 private:
  struct DirDeltas {
    std::int64_t prev_time_ns = 0;
    std::uint64_t prev_seq = 0;
    std::uint64_t prev_ack = 0;
    std::int64_t prev_wire = 0;
    std::uint64_t prev_len = 0;
    std::uint64_t prev_off = 0;
  };

  /// Appends raw bytes to the file, tracking offset_.
  void write_raw(util::BytesView bytes);
  /// Appends one trailer-table row and writes an *uncompressed* section
  /// payload (meta, block index).
  void write_section(Section id, util::BytesView payload, std::uint64_t count);

  TraceMeta meta_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;  ///< bytes written to the file so far
  bool finished_ = false;

  BlockColumnWriter pkt_cols_;  // blocks cut as packets arrive
  BlockColumnWriter rec_cols_c2s_;
  BlockColumnWriter rec_cols_s2c_;
  BlockColumnWriter truth_cols_;
  BlockColumnWriter summary_cols_;
  BlockColumnWriter fleet_cols_;    // per-connection rows (fleet mode)
  BlockColumnWriter conn_cols_;     // connection-id columns (fleet mode)

  bool fleet_mode_ = false;
  std::uint64_t n_conns_ = 0;
  std::uint64_t n_packets_ = 0;
  std::uint64_t n_records_c2s_ = 0;
  std::uint64_t n_records_s2c_ = 0;
  std::uint64_t n_instances_ = 0;
  bool have_truth_ = false;
  bool have_summary_ = false;

  std::array<DirDeltas, 2> pkt_state_{};  // indexed by net::Direction
  std::array<DirDeltas, 2> rec_state_{};
  std::int64_t prev_pkt_time_ns_ = 0;  // packet time deltas are global

  struct SectionEntry {
    Section id;
    std::uint64_t offset;
    std::uint64_t length;
    std::uint64_t count;
    bool compressed;
  };
  std::vector<SectionEntry> sections_;
  std::vector<SectionBlocks> index_;  ///< directory entries, section order
};

}  // namespace h2priv::capture
