// The .h2t reader: validation, the section index, the section decoders, and
// the two classes every caller reads a trace through.
//
//   TraceFile    lazy, zero-copy: mmaps the file (util::MappedFile), checks
//                the skeleton once, and decodes only the sections a caller
//                asks for — a scorer that needs meta + records never touches
//                the packet bytes.
//   PacketCursor streaming: yields one PacketObservation at a time from the
//                packets section — what replay, pcap export and
//                recompression iterate, so no trace materializes a packet
//                vector. The blocks it decodes stay in the TraceFile's
//                decoded-block table until the file closes.
//
// Validation here is hardened against hostile input: wrong magics, truncated
// trailers, section offsets past EOF, overlapping sections and implausible
// entry counts all raise TraceError before any decoder touches the payload.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "h2priv/analysis/ground_truth.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/capture/trace_codec.hpp"
#include "h2priv/capture/trace_format.hpp"
#include "h2priv/util/bytes.hpp"
#include "h2priv/util/mapped_file.hpp"

namespace h2priv::capture {

struct SectionInfo {
  Section id = Section::kMeta;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;  ///< on-disk payload bytes (coded size if compressed)
  std::uint64_t count = 0;
  bool compressed = false;       ///< v2: payload is block-compressed
  std::uint64_t raw_length = 0;  ///< decoded payload bytes (== length when raw)
};

/// Incremental FNV-1a 64 (same parameters as tests/support/trace_hash):
/// folds `data` into a running hash. Seed with kFnv1aInit.
inline constexpr std::uint64_t kFnv1aInit = 0xcbf29ce484222325ULL;
[[nodiscard]] std::uint64_t fnv1a_update(std::uint64_t h, util::BytesView data) noexcept;

/// Validates the .h2t skeleton of `image` (magics, version, trailer) and
/// returns the section table in file order. Accepts every version from
/// kMinReadVersion through kFormatVersion; the file's version is written to
/// `version_out` when non-null. Throws TraceError on any structural fault:
/// truncation, out-of-range or overlapping sections, a section count
/// inconsistent with its byte length, or compression flags in a v1 file.
[[nodiscard]] std::vector<SectionInfo> validate_and_index(
    util::BytesView image, std::uint16_t* version_out = nullptr);

/// First section with `id`, or nullptr.
[[nodiscard]] const SectionInfo* find_section(const std::vector<SectionInfo>& sections,
                                              Section id) noexcept;

/// Bounds-checked payload view of one section. Throws TraceError.
[[nodiscard]] util::BytesView section_view(util::BytesView image,
                                           const SectionInfo& s);

// --- section decoders (each throws TraceError on malformed payloads) --------

[[nodiscard]] TraceMeta decode_meta(util::BytesView payload);
[[nodiscard]] analysis::GroundTruth decode_ground_truth(util::BytesView payload);
[[nodiscard]] TraceSummary decode_summary(util::BytesView payload);
/// Decodes a raw kFleet payload; `count` is the section's trailer count and
/// must match the encoded connection count.
[[nodiscard]] std::vector<FleetConn> decode_fleet(util::BytesView payload,
                                                  std::uint64_t count);

/// Streaming decoder over the packets section: one PacketObservation per
/// next() call. Restartable by constructing a fresh cursor.
///
/// v1 and v2 read through the same loop over six ColumnReaders. A v2 column
/// decodes its blocks on demand into the owning TraceFile's decoded-block
/// table, so a cursor that stops early never pays for the blocks past its
/// position, and a second cursor decodes nothing the first already did. The
/// cursor's own state is O(1); the blocks it decoded stay in the table until
/// the TraceFile closes, at most the raw size of the coded packet columns.
/// A cursor borrows the TraceFile's image and table and must not outlive it.
class PacketCursor {
 public:
  PacketCursor(ColumnReaders<6> columns, std::uint64_t count)
      : cols_(columns), left_(count) {}

  /// Decodes the next packet into `out`; false when the section is
  /// exhausted. Throws TraceError on malformed input, including a
  /// payload_len above kMaxPacketPayload.
  bool next(analysis::PacketObservation& out);

  [[nodiscard]] std::uint64_t remaining() const noexcept { return left_; }

 private:
  struct DirState {
    std::uint64_t seq = 0, ack = 0, len = 0;
    std::int64_t wire = 0;
  };
  ColumnReaders<6> cols_;  ///< tag, dtime, dwire, dseq, dack, dlen
  std::uint64_t left_ = 0;
  std::int64_t prev_time_ns_ = 0;
  std::array<DirState, 2> dirs_{};
};

/// Lazy, mmap-backed .h2t accessor: opening validates the skeleton and
/// decodes the (tiny) meta section; everything else decodes on demand from
/// the mapped image. The file stays mapped for the object's lifetime, so
/// views returned by section_bytes() are zero-copy.
class TraceFile {
 public:
  /// Maps and validates `path`. Throws TraceError.
  [[nodiscard]] static TraceFile open(const std::string& path);

  /// Validates an in-memory image the caller owns elsewhere (testing).
  explicit TraceFile(util::Bytes image);

  [[nodiscard]] const TraceMeta& meta() const noexcept { return meta_; }
  /// Format version of the file on disk (1 or 2).
  [[nodiscard]] std::uint16_t version() const noexcept { return version_; }
  [[nodiscard]] const std::vector<SectionInfo>& sections() const noexcept {
    return sections_;
  }
  /// Block directory of one compressed section, nullptr for raw sections
  /// (every section of a v1 file).
  [[nodiscard]] const SectionBlocks* section_blocks(Section id) const noexcept {
    return blocks_ != nullptr ? blocks_->find(id) : nullptr;
  }
  [[nodiscard]] const SectionInfo* section(Section id) const noexcept {
    return find_section(sections_, id);
  }
  [[nodiscard]] bool has_section(Section id) const noexcept {
    return section(id) != nullptr;
  }

  /// Zero-copy payload view of `id`. Throws TraceError if absent.
  [[nodiscard]] util::BytesView section_bytes(Section id) const;

  [[nodiscard]] std::uint64_t packet_count() const noexcept;
  /// Streaming cursor over the packets section (empty cursor if absent).
  [[nodiscard]] PacketCursor packets() const;
  /// Eagerly decodes one records section (empty if absent).
  [[nodiscard]] std::vector<analysis::RecordObservation> records(
      net::Direction dir) const;
  [[nodiscard]] analysis::GroundTruth ground_truth() const;
  [[nodiscard]] TraceSummary summary() const;
  /// Decodes the kFleet section (per-connection provenance + blobs). Throws
  /// TraceError if absent or malformed.
  [[nodiscard]] std::vector<FleetConn> fleet() const;
  /// Decodes and fully validates the kConnIds columns: counts must match the
  /// packets/records sections and every id must be below the fleet
  /// connection count. Throws TraceError on any inconsistency.
  [[nodiscard]] ConnIdColumns conn_ids() const;

  [[nodiscard]] std::uint64_t file_size() const noexcept { return image_.size(); }
  /// FNV-1a 64 of the whole image; computed once, cached.
  [[nodiscard]] std::uint64_t digest() const;
  [[nodiscard]] util::BytesView image() const noexcept { return image_; }

 private:
  TraceFile() = default;
  void index();

  util::MappedFile mapped_;
  util::Bytes owned_;
  util::BytesView image_;
  TraceMeta meta_;
  std::uint16_t version_ = kFormatVersion;
  std::vector<SectionInfo> sections_;
  /// Column readers of the packets or records section `s`.
  template <std::size_t N>
  [[nodiscard]] ColumnReaders<N> columns(const SectionInfo& s) const;
  /// Raw payload of a section read whole (ground truth, summary, fleet): a
  /// view into the image when stored raw, else decompressed into `buf`.
  [[nodiscard]] util::BytesView whole_section(Section id, const char* name,
                                              util::Bytes& buf) const;

  /// v2 decode state (directory, decoded-block table, coder model);
  /// allocated only when the file has compressed sections. Mutable because
  /// decoding a block into the table is a logically-const read. The table
  /// keeps every coded block a reader decoded until the TraceFile closes: at
  /// most the raw size of the columns read (1.8× their stored bytes on a
  /// 16-client fleet trace), never more than util::kRcMaxExpansion× the
  /// file. Like the rest of a TraceFile, it is single-threaded — corpus
  /// workers each open their own.
  mutable std::unique_ptr<BlockDirectory> blocks_;
  mutable std::optional<std::uint64_t> digest_;
};

}  // namespace h2priv::capture
