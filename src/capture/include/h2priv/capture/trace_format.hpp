// The .h2t trace container: what a capture-then-analyze workflow stores.
//
// One file = one seeded page load as the gateway adversary saw it (packet
// and TLS-record observations) plus the simulator-side ground truth and the
// live run's scored verdict. The format is designed for corpus-scale offline
// analysis: compact (varint delta encoding), versioned, and seekable — every
// section is located through a trailer table, so a reader jumps straight to
// the section it needs without parsing the rest.
//
// File layout (all fixed-width integers big-endian, matching the tree's
// ByteWriter/ByteReader conventions; see DESIGN.md §8 for the field tables):
//
//   [header: 24 bytes]  magic(8) version(u16) reserved(u16+u32) seed(u64)
//   [section payloads]  packets first (streamed), then the buffered sections
//   [trailer]           per-section {id(u32) offset(u64) length(u64)
//                       count(u64)}, then section_count(u32)
//                       trailer_offset(u64) end-magic(8)
//
// Sections carry no inline framing: offsets/lengths live only in the trailer
// table, which is what lets the packets section stream to disk block by
// block as packets are added, before their count is known.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/defense/defense.hpp"
#include "h2priv/util/units.hpp"
#include "h2priv/web/isidewith.hpp"

namespace h2priv::capture {

/// File magic: PNG-style leading non-ASCII byte + CR/LF + EOF + LF catches
/// text-mode mangling, not just wrong-file mistakes.
inline constexpr std::array<std::uint8_t, 8> kMagic = {0x89, 'H',  '2',  'T',
                                                       '\r', '\n', 0x1a, '\n'};
inline constexpr std::array<std::uint8_t, 8> kEndMagic = {'H', '2', 'T', 'E',
                                                          'N', 'D', 0x1a, '\n'};
/// Version the writer emits. v2 adds per-section block compression (stream-
/// split columns + adaptive range coding, trace_codec.hpp); readers accept
/// v1 files forever — a v1 corpus on disk never needs rewriting to stay
/// scorable.
inline constexpr std::uint16_t kFormatVersion = 2;
inline constexpr std::uint16_t kMinReadVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
/// Trailer tail after the section table: count(u32) + table offset(u64) +
/// end magic(8).
inline constexpr std::size_t kTrailerTailBytes = 20;
inline constexpr std::size_t kSectionEntryBytes = 28;

/// Section ids (u32 in the trailer table). Unknown ids are skipped by
/// readers, so additive format evolution does not need a version bump.
enum class Section : std::uint32_t {
  kMeta = 1,
  kPackets = 2,
  kRecordsC2S = 3,
  kRecordsS2C = 4,
  kGroundTruth = 5,
  kSummary = 6,
  /// v2: uncompressed directory of every compressed section's blocks
  /// (streams, raw lengths, per-block coded sizes). See trace_codec.hpp.
  kBlockIndex = 7,
  /// v2 fleet traces: per-connection provenance (seed, path profile, cache
  /// outcome counts) plus each connection's ground-truth and summary blobs —
  /// fleet traces carry no global kGroundTruth/kSummary sections because
  /// per-connection TCP sequence spaces overlap and instance ids restart.
  kFleet = 8,
  /// v2 fleet traces: per-packet / per-record connection-id columns that let
  /// a reader demultiplex the interleaved capture back into per-client
  /// observation streams. Single-connection traces never write kFleet or
  /// kConnIds, so their bytes are identical to pre-fleet writers.
  kConnIds = 9,
};

/// v2: set on a trailer-table section id whose payload is block-compressed;
/// the base id lives in the low bits. v1 files never set it.
inline constexpr std::uint32_t kSectionCompressedFlag = 0x8000'0000u;

/// v2 block size: each compressed stream is cut into independently decodable
/// blocks of this many raw bytes (the last block of a stream is shorter), so
/// a reader touching one packet range decodes ~64 KiB per stream, not the
/// whole section, and the writer's memory stays bounded while streaming.
inline constexpr std::uint64_t kBlockBytes = 64 * 1024;
/// Upper bound a reader accepts for a file's declared block size — caps the
/// decode buffer a hostile index can demand.
inline constexpr std::uint64_t kMaxBlockBytes = 4 * 1024 * 1024;

/// Largest payload_len a reader accepts for one packet: the IPv4 total-length
/// ceiling (65,535) minus the 20 + 20 IPv4/TCP header bytes pcap export
/// synthesizes. Replay materializes, and pcap export writes, each payload
/// in full, so a larger value is hostile input, not a packet.
inline constexpr std::uint64_t kMaxPacketPayload = 65'535 - 40;

/// Canonical per-observation footprint used for the compression-ratio
/// counters (capture.raw_bytes vs capture.bytes_written). Fixed widths, not
/// sizeof(): struct padding is platform-dependent and the counters must be
/// bit-identical everywhere.
inline constexpr std::uint64_t kRawPacketBytes = 42;  // t8 dir1 wire8 seq8 ack8 fl1 len8
inline constexpr std::uint64_t kRawRecordBytes = 26;  // t8 dir1 type1 len8 off8

class TraceError : public std::runtime_error {
 public:
  explicit TraceError(const std::string& what) : std::runtime_error(what) {}
};

/// Run provenance stored in the kMeta section: everything offline analysis
/// needs to rebuild the adversary's context (catalog, horizon, labels)
/// without re-running the simulation.
struct TraceMeta {
  std::uint64_t seed = 0;
  std::string scenario;            ///< free-form label, e.g. "fig2" / "table2"
  std::string site = "isidewith";  ///< victim model the catalog derives from
  bool attack_enabled = false;
  bool pad_sensitive_objects = false;
  bool push_emblems = false;
  /// Manual middlebox programs (nanoseconds / bits-per-second; nullopt = off).
  std::optional<std::int64_t> manual_spacing_ns;
  std::optional<std::int64_t> manual_bandwidth_bps;
  std::int64_t deadline_ns = 0;
  /// Phase-3 horizon the live predictor used (drops_ended, or 0).
  std::int64_t attack_horizon_ns = 0;
  /// The survey result: party index by display position (ground truth).
  std::array<int, web::kPartyCount> party_order{};
  /// Defense knobs the run was generated under (src/defense). Encoded in the
  /// meta section only when enabled() — undefended traces stay byte-identical
  /// to pre-defense writers.
  defense::DefenseConfig defense{};
  /// Fleet trace (meta flag 0x40): the file interleaves N connections and
  /// carries kFleet + kConnIds sections. party_order / attack_horizon_ns in
  /// this global meta are unused (zeroed); the per-connection values live in
  /// the kFleet section. Single-connection traces never set the flag, so
  /// their meta bytes are unchanged.
  bool fleet = false;
};

/// One object's scored outcome as stored in the kSummary section — the live
/// run's verdict, kept beside the observations so an offline replay can be
/// checked against it without re-simulating.
struct ObjectVerdict {
  std::string label;
  std::uint64_t true_size = 0;
  /// Degree of multiplexing of the primary instance; exact IEEE bits of the
  /// live value (-1.0 = never served) so comparison is byte-strict.
  double primary_dom = -1.0;
  bool has_dom = false;
  bool serialized_primary = false;
  bool any_serialized_copy = false;
  bool identified = false;
  bool attack_success = false;

  friend bool operator==(const ObjectVerdict&, const ObjectVerdict&) = default;
};

/// The live run's full attack verdict (kSummary section).
struct TraceSummary {
  std::uint64_t monitor_packets = 0;
  std::int64_t monitor_gets = 0;
  ObjectVerdict html;
  std::array<ObjectVerdict, web::kPartyCount> emblems_by_position{};
  std::vector<std::string> predicted_sequence;
  std::int64_t sequence_positions_correct = 0;

  friend bool operator==(const TraceSummary&, const TraceSummary&) = default;
};

/// One connection of a fleet trace (kFleet section): the per-client run
/// provenance plus that client's own ground truth and scored verdict. The
/// observation columns (packets/records) stay in the shared sections and are
/// attributed to connections through kConnIds; timestamps there are global
/// (client-local time + start_offset_ns), so a demultiplexer rebases them by
/// -start_offset_ns to recover the client-local observation stream.
struct FleetConn {
  std::uint64_t client_seed = 0;
  std::int64_t start_offset_ns = 0;
  std::int64_t attack_horizon_ns = 0;
  std::array<int, web::kPartyCount> party_order{};
  /// Heterogeneous path profile the client ran under (provenance).
  std::int64_t client_hop_delay_ns = 0;
  std::int64_t server_hop_delay_ns = 0;
  std::int64_t link_rate_bps = 0;
  /// Cache-tier outcome counts for this client's requests (all zero when the
  /// fleet ran cache-off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;

  analysis::GroundTruth truth;
  TraceSummary summary;
};

/// Decoded kConnIds section: one connection index per stored packet and per
/// stored record, in section order. Every id is validated < n_conns.
struct ConnIdColumns {
  std::vector<std::uint32_t> packets;
  std::vector<std::uint32_t> records_c2s;
  std::vector<std::uint32_t> records_s2c;
};

}  // namespace h2priv::capture
