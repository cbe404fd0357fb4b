// .h2t v2 block compression: stream-split sections, the block index, and the
// cursor that decodes only the blocks a reader touches, each once.
//
// v2 turns each compressible section into a set of *streams* (columns):
// the packets section stores its tag bytes and five delta fields as six
// separate byte streams, records sections four, ground truth and summary one
// (their row encoding unchanged). Splitting by field groups bytes with the
// same distribution, which is what lets the order-1 adaptive range coder
// (util/range_coder.hpp) reach multiples of the v1 ratio without any stored
// tables.
//
// Each stream is cut into kBlockBytes blocks, coded independently (model
// reset per block, so in any order or side by side), and the blocks of all
// streams are concatenated in the writer's cut order to form the section
// payload. A block whose coded form would not shrink by 1/8 is stored raw
// and read zero-copy from the mapped image.
// The uncompressed kBlockIndex section is the directory: per section, the
// stream count, per-stream raw lengths, and per-block {stream, flags,
// coded length} in disk order — everything else (disk offsets, per-stream
// raw offsets, per-block raw lengths) is derived by prefix sums, so the
// index stays small and every declared size is cross-checked against the
// trailer during validation.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "h2priv/capture/trace_format.hpp"
#include "h2priv/util/bytes.hpp"
#include "h2priv/util/range_coder.hpp"

namespace h2priv::capture {

/// Stream (column) counts per compressible section. kMeta is never
/// compressed: it is a few dozen bytes and must decode at open().
[[nodiscard]] constexpr std::uint32_t section_stream_count(Section id) noexcept {
  switch (id) {
    case Section::kPackets:
      return 6;  // tag, dtime, dwire, dseq, dack, dlen
    case Section::kRecordsC2S:
    case Section::kRecordsS2C:
      return 4;  // type, dtime, dlen, doff
    case Section::kGroundTruth:
    case Section::kSummary:
      return 1;  // row layout unchanged, compressed as one stream
    case Section::kFleet:
      return 1;  // per-connection rows, one stream
    case Section::kConnIds:
      return 3;  // packet ids, c2s record ids, s2c record ids
    default:
      return 0;  // not compressible
  }
}

struct BlockInfo {
  std::uint32_t stream = 0;      ///< column this block belongs to
  std::uint64_t raw_offset = 0;  ///< offset within the stream's raw bytes
  std::uint64_t raw_length = 0;
  std::uint64_t disk_offset = 0;  ///< offset within the section payload
  std::uint64_t comp_length = 0;
  bool stored = false;  ///< raw fallback — served zero-copy from the image
};

/// One compressed section's fully validated block directory.
struct SectionBlocks {
  Section id = Section::kPackets;
  std::uint32_t n_streams = 0;
  std::uint64_t block_size = kBlockBytes;
  std::vector<std::uint64_t> stream_raw_len;        ///< per stream
  std::vector<BlockInfo> blocks;                    ///< disk order
  std::vector<std::vector<std::uint32_t>> by_stream;  ///< block idx, raw order
};

/// Parsed once per TraceFile: the decoded kBlockIndex section, the
/// decoded-block table and the range-coder model. Mutable through a const
/// TraceFile; single-threaded like the TraceFile itself.
struct BlockDirectory {
  explicit BlockDirectory(std::vector<SectionBlocks> parsed)
      : sections(std::move(parsed)) {
    for (const SectionBlocks& s : sections) decoded.emplace_back(s.blocks.size());
  }

  std::vector<SectionBlocks> sections;
  /// The decoded-block table, parallel to `sections`: one buffer per block
  /// index. A coded block decodes into its entry on its first read and keeps
  /// it until the TraceFile closes, so a view into it never dangles; stored
  /// blocks leave their entry empty and are read from the image.
  std::vector<std::vector<util::Bytes>> decoded;
  util::RcModel model;

  [[nodiscard]] const SectionBlocks* find(Section id) const noexcept {
    for (const SectionBlocks& s : sections) {
      if (s.id == id) return &s;
    }
    return nullptr;
  }

  /// Raw bytes of block `index` of `blocks` (an element of `sections`) whose
  /// section payload is `section_payload`: a view into the payload when the
  /// block is stored, else into its table entry, decoded on the first read
  /// (a lookup counts a codec.cache_hits or codec.cache_misses). A decode
  /// that throws leaves the entry empty. Throws TraceError.
  [[nodiscard]] util::BytesView block(util::BytesView section_payload,
                                      const SectionBlocks& blocks, std::uint32_t index);
};

struct SectionInfo;  // trace_view.hpp

/// Decodes and validates the kBlockIndex payload against the trailer table:
/// every compressed section must be directoried exactly once with the right
/// stream count, per-block coded lengths must sum to the section's byte
/// length, per-stream blocks must tile the declared raw lengths, coded
/// blocks must be strictly smaller than their raw form and no more than
/// util::kRcMaxExpansion times smaller, and the count-vs-length plausibility
/// check moves to the raw domain (stream 0 carries exactly one byte per
/// entry). So no declared raw length or count exceeds ~46× the file's size.
/// Throws TraceError on any inconsistency.
[[nodiscard]] std::vector<SectionBlocks> decode_block_index(
    util::BytesView payload, const std::vector<SectionInfo>& sections);

/// Appends the block-index payload for `sections` (writer side).
void encode_block_index(util::ByteWriter& out,
                        const std::vector<SectionBlocks>& sections);

/// Decompresses one whole section into `out` (ground truth, summary, fleet:
/// the single-shot sections where random access buys nothing), decoding
/// each of its blocks once per call, outside the decoded-block table.
/// Throws TraceError.
void decompress_section(util::BytesView section_payload, const SectionBlocks& blocks,
                        util::RcModel& model, util::Bytes& out);

/// Sequential cursor over one byte stream: a column of a compressed section,
/// whose blocks it takes from the BlockDirectory on demand (a reader that
/// stops early never decodes the blocks past its position), or a raw
/// payload read whole. Throws util::OutOfBounds (mapped to TraceError by the
/// caller) when reads pass the stream's end.
///
/// Holds views into the TraceFile's image and decoded-block table: it must
/// not outlive the TraceFile that produced it.
class StreamReader {
 public:
  /// Empty stream (absent section).
  StreamReader() = default;

  /// A raw payload as one stream: a v1 section, whose rows interleave every
  /// column, so the one reader stands in for all of them.
  explicit StreamReader(util::BytesView raw) : cur_(raw) {}

  /// Column `stream` of a compressed section.
  StreamReader(util::BytesView section_payload, const SectionBlocks& blocks,
               std::uint32_t stream, BlockDirectory& dir);

  [[nodiscard]] std::uint8_t u8() {
    if (pos_ == cur_.size()) refill();
    return cur_[pos_++];
  }

  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();

  /// Raw bytes not yet consumed across all remaining blocks.
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return left_ + (cur_.size() - pos_);
  }

 private:
  void refill();

  util::BytesView payload_;
  const SectionBlocks* blocks_ = nullptr;  ///< nullptr: raw payload, all in cur_
  BlockDirectory* dir_ = nullptr;
  std::uint32_t stream_ = 0;
  std::size_t next_block_ = 0;  ///< index into blocks_->by_stream[stream_]
  util::BytesView cur_;
  std::size_t pos_ = 0;
  std::uint64_t left_ = 0;      ///< raw bytes in blocks not yet loaded into cur_
};

/// The N column readers of one packets or records section. A v2 section
/// splits its columns into streams, each read on its own; a v1 payload
/// interleaves them row by row, so one raw reader stands in for every
/// column and the row decoders read both versions through the same loop.
template <std::size_t N>
class ColumnReaders {
 public:
  /// Absent section: every read throws.
  ColumnReaders() = default;

  /// v1 row-interleaved payload.
  explicit ColumnReaders(util::BytesView raw) { readers_[0] = StreamReader(raw); }

  /// v2 stream-split payload.
  ColumnReaders(util::BytesView section_payload, const SectionBlocks& blocks,
                BlockDirectory& dir)
      : split_(true) {
    for (std::uint32_t c = 0; c < N; ++c) {
      readers_[c] = StreamReader(section_payload, blocks, c, dir);
    }
  }

  [[nodiscard]] StreamReader& operator[](std::size_t column) noexcept {
    return readers_[split_ ? column : 0];
  }
  /// True for v2, whose columns also carry residuals against predictors.
  [[nodiscard]] bool split() const noexcept { return split_; }

 private:
  std::array<StreamReader, N> readers_;
  bool split_ = false;
};

/// Writer-side column set for one compressed section: accumulates per-stream
/// column bytes and cuts them into kBlockBytes blocks, remembering each cut's
/// (stream, raw offset) in disk order. The columns stay in memory until the
/// section is committed; coding happens in between, for every block at once
/// (TraceWriter::finish), so blocks can be coded on several workers and still
/// land in one order.
class BlockColumnWriter {
 public:
  BlockColumnWriter(Section id, std::uint32_t n_streams);

  [[nodiscard]] util::ByteWriter& stream(std::uint32_t s) { return *cols_[s]; }

  /// Cuts every stream's full blocks, in stream order. Called after each
  /// appended packet (a no-op until a column crosses kBlockBytes), so packet
  /// blocks land on disk interleaved by the packet that filled them.
  void cut_full_blocks();
  /// Cuts every stream's remaining bytes, stream by stream. Call once, at the
  /// end of the section.
  void cut_tails();

  [[nodiscard]] std::size_t n_cuts() const noexcept { return cuts_.size(); }
  /// Raw bytes of cut block `i` (disk order); valid until a stream is written.
  [[nodiscard]] util::BytesView cut_block(std::size_t i) const;

  /// Commits every cut block in disk order, given `coded[i]`, block i's
  /// range-coded form: records its directory row and hands its on-disk bytes
  /// to `sink` — the coded form, or the raw block when coding would not save
  /// at least 1/8 of it.
  template <typename Sink>
  void commit(std::span<const util::Bytes> coded, Sink&& sink) {
    for (std::size_t i = 0; i < cuts_.size(); ++i) sink(commit_block(i, coded[i]));
  }

  /// The section's directory entry (complete after commit()).
  [[nodiscard]] const SectionBlocks& directory() const noexcept { return dir_; }

 private:
  struct Cut {
    std::uint32_t stream = 0;
    std::size_t offset = 0;  ///< into the stream's raw bytes
  };

  [[nodiscard]] util::BytesView commit_block(std::size_t i, util::BytesView coded);

  SectionBlocks dir_;
  std::vector<std::unique_ptr<util::ByteWriter>> cols_;
  std::vector<std::size_t> cut_end_;  ///< per stream: raw bytes already cut
  std::vector<Cut> cuts_;             ///< disk order
};

}  // namespace h2priv::capture
