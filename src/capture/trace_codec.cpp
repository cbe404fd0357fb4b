#include "h2priv/capture/trace_codec.hpp"

#include <cstring>

#include "h2priv/capture/trace_view.hpp"
#include "h2priv/capture/varint.hpp"
#include "h2priv/obs/metrics.hpp"

namespace h2priv::capture {

namespace {

template <typename Fn>
auto index_guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const util::OutOfBounds& e) {
    throw TraceError(std::string("truncated block index: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("malformed block index: ") + e.what());
  }
}

/// Derived-field fill + full cross-check of one parsed directory entry
/// against its trailer row. All the hostile-input strictness lives here.
void finalize_section(SectionBlocks& sb, const SectionInfo& info) {
  if (sb.n_streams != section_stream_count(sb.id) || sb.n_streams == 0) {
    throw TraceError("block index: wrong stream count for section");
  }
  if (sb.block_size == 0 || sb.block_size > kMaxBlockBytes) {
    throw TraceError("block index: implausible block size");
  }
  sb.by_stream.assign(sb.n_streams, {});
  std::vector<std::uint64_t> consumed(sb.n_streams, 0);
  std::uint64_t disk = 0;
  for (std::size_t i = 0; i < sb.blocks.size(); ++i) {
    BlockInfo& b = sb.blocks[i];
    if (b.stream >= sb.n_streams) throw TraceError("block index: stream out of range");
    const std::uint64_t stream_raw = sb.stream_raw_len[b.stream];
    b.raw_offset = consumed[b.stream];
    if (b.raw_offset >= stream_raw) throw TraceError("block index: too many blocks");
    b.raw_length = std::min(sb.block_size, stream_raw - b.raw_offset);
    b.disk_offset = disk;
    if (b.stored) {
      if (b.comp_length != b.raw_length) {
        throw TraceError("block index: stored block length mismatch");
      }
    } else if (b.comp_length >= b.raw_length) {
      // The writer always falls back to stored when coding does not shrink,
      // so a coded block at least as large as its raw form is corruption.
      throw TraceError("block index: coded block not smaller than raw");
    } else if (b.raw_length > util::kRcMaxExpansion * b.comp_length) {
      // No coded byte carries more than kRcMaxExpansion raw bytes; a block
      // claiming more would size buffers and counts the file cannot back.
      throw TraceError("block index: coded block expands past the coder's limit");
    }
    consumed[b.stream] += b.raw_length;
    disk += b.comp_length;
    sb.by_stream[b.stream].push_back(static_cast<std::uint32_t>(i));
  }
  if (disk != info.length) {
    throw TraceError("block index: block sizes disagree with section length");
  }
  for (std::uint32_t s = 0; s < sb.n_streams; ++s) {
    if (consumed[s] != sb.stream_raw_len[s]) {
      throw TraceError("block index: blocks do not tile stream");
    }
  }
  // Count plausibility in the raw domain: stream 0 (tag / record-type bytes)
  // holds exactly one byte per entry; every varint stream at least one.
  if (sb.id == Section::kPackets || sb.id == Section::kRecordsC2S ||
      sb.id == Section::kRecordsS2C) {
    if (sb.stream_raw_len[0] != info.count) {
      throw TraceError("block index: count inconsistent with tag stream");
    }
    for (std::uint32_t s = 1; s < sb.n_streams; ++s) {
      if (sb.stream_raw_len[s] < info.count) {
        throw TraceError("block index: count inconsistent with stream length");
      }
    }
  }
  // kConnIds' count is the packet count; stream 0 stores one varint id per
  // packet, at least one byte each. (Record-id streams are bounded by their
  // own sections' counts at decode time.)
  if (sb.id == Section::kConnIds && sb.stream_raw_len[0] < info.count) {
    throw TraceError("block index: count inconsistent with conn-id stream");
  }
}

}  // namespace

std::vector<SectionBlocks> decode_block_index(
    util::BytesView payload, const std::vector<SectionInfo>& sections) {
  return index_guard([&] {
    util::ByteReader r(payload);
    const std::uint64_t n = get_varint(r);
    if (n > sections.size()) {
      throw TraceError("block index: more entries than sections");
    }
    std::vector<SectionBlocks> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      SectionBlocks sb;
      sb.id = static_cast<Section>(get_varint(r));
      const SectionInfo* info = nullptr;
      for (const SectionInfo& s : sections) {
        if (s.id == sb.id && s.compressed) info = &s;
      }
      if (info == nullptr) {
        throw TraceError("block index entry for a section that is not compressed");
      }
      for (const SectionBlocks& seen : out) {
        if (seen.id == sb.id) throw TraceError("duplicate block index entry");
      }
      sb.n_streams = static_cast<std::uint32_t>(get_varint(r));
      if (sb.n_streams > 64) throw TraceError("block index: implausible stream count");
      sb.block_size = get_varint(r);
      sb.stream_raw_len.resize(sb.n_streams);
      for (std::uint64_t& len : sb.stream_raw_len) len = get_varint(r);
      const std::uint64_t n_blocks = get_varint(r);
      // >= 2 bytes per block row below; refuse counts the payload can't hold.
      if (n_blocks > payload.size() / 2) {
        throw TraceError("block index: block count exceeds payload");
      }
      sb.blocks.resize(static_cast<std::size_t>(n_blocks));
      for (BlockInfo& b : sb.blocks) {
        b.stream = static_cast<std::uint32_t>(get_varint(r));
        b.stored = (get_varint(r) & 0x01) != 0;
        b.comp_length = get_varint(r);
      }
      finalize_section(sb, *info);
      out.push_back(std::move(sb));
    }
    // Every compressed trailer row must have been directoried.
    for (const SectionInfo& s : sections) {
      if (!s.compressed) continue;
      bool found = false;
      for (const SectionBlocks& sb : out) found = found || sb.id == s.id;
      if (!found) throw TraceError("compressed section missing from block index");
    }
    if (!r.done()) throw TraceError("block index: trailing bytes");
    return out;
  });
}

void encode_block_index(util::ByteWriter& out,
                        const std::vector<SectionBlocks>& sections) {
  put_varint(out, sections.size());
  for (const SectionBlocks& sb : sections) {
    put_varint(out, static_cast<std::uint64_t>(sb.id));
    put_varint(out, sb.n_streams);
    put_varint(out, sb.block_size);
    for (const std::uint64_t len : sb.stream_raw_len) put_varint(out, len);
    put_varint(out, sb.blocks.size());
    for (const BlockInfo& b : sb.blocks) {
      put_varint(out, b.stream);
      put_varint(out, b.stored ? 1 : 0);
      put_varint(out, b.comp_length);
    }
  }
}

namespace {

/// Decodes one block's raw bytes into `out` (sized by the caller). The
/// coded stream must consume exactly comp_length bytes — the encoder emits
/// precisely the bytes the decoder needs, so any slack is corruption.
void decode_block(util::BytesView comp, util::RcModel& model,
                  std::span<std::uint8_t> out) {
  try {
    model.reset();
    if (util::rc_decompress(comp, model, out) != comp.size()) {
      throw TraceError("compressed block has trailing bytes");
    }
  } catch (const util::OutOfBounds& e) {
    throw TraceError(std::string("truncated compressed block: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("corrupt compressed block: ") + e.what());
  }
  obs::count(obs::Counter::kCodecBlocksDecoded);
}

[[nodiscard]] util::BytesView block_disk_bytes(util::BytesView payload,
                                               const BlockInfo& b) {
  if (b.disk_offset > payload.size() ||
      payload.size() - b.disk_offset < b.comp_length) {
    throw TraceError("block extends past section payload");
  }
  return payload.subspan(static_cast<std::size_t>(b.disk_offset),
                         static_cast<std::size_t>(b.comp_length));
}

}  // namespace

void decompress_section(util::BytesView section_payload, const SectionBlocks& blocks,
                        util::RcModel& model, util::Bytes& out) {
  out.clear();
  if (blocks.n_streams != 1) {
    throw TraceError("whole-section decompress expects a single stream");
  }
  out.reserve(static_cast<std::size_t>(blocks.stream_raw_len[0]));
  for (const BlockInfo& b : blocks.blocks) {
    const util::BytesView disk = block_disk_bytes(section_payload, b);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(b.raw_length));
    if (b.stored) {
      std::memcpy(out.data() + at, disk.data(), disk.size());
    } else {
      decode_block(disk, model,
                   std::span<std::uint8_t>(out.data() + at,
                                           static_cast<std::size_t>(b.raw_length)));
    }
  }
}

util::BytesView BlockDirectory::block(util::BytesView section_payload,
                                      const SectionBlocks& blocks, std::uint32_t index) {
  const BlockInfo& b = blocks.blocks[index];
  const util::BytesView disk = block_disk_bytes(section_payload, b);
  if (b.stored) return disk;  // zero-copy straight from the mapped image
  util::Bytes& raw = decoded[static_cast<std::size_t>(&blocks - sections.data())][index];
  if (!raw.empty()) {  // a coded block is never empty once decoded
    obs::count(obs::Counter::kCodecCacheHits);
    return {raw.data(), raw.size()};
  }
  obs::count(obs::Counter::kCodecCacheMisses);
  util::Bytes out(static_cast<std::size_t>(b.raw_length));
  decode_block(disk, model, std::span<std::uint8_t>(out));
  raw = std::move(out);
  return {raw.data(), raw.size()};
}

StreamReader::StreamReader(util::BytesView section_payload,
                           const SectionBlocks& blocks, std::uint32_t stream,
                           BlockDirectory& dir)
    : payload_(section_payload),
      blocks_(&blocks),
      dir_(&dir),
      stream_(stream),
      left_(blocks.stream_raw_len[stream]) {}

void StreamReader::refill() {
  if (blocks_ == nullptr || next_block_ >= blocks_->by_stream[stream_].size()) {
    throw util::OutOfBounds("stream exhausted");
  }
  cur_ = dir_->block(payload_, *blocks_, blocks_->by_stream[stream_][next_block_++]);
  left_ -= cur_.size();
  pos_ = 0;
}

std::uint64_t StreamReader::varint() {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
    const std::uint8_t b = u8();
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) return v;
  }
  throw std::invalid_argument("varint: over-long encoding");
}

std::int64_t StreamReader::svarint() { return unzigzag(varint()); }

BlockColumnWriter::BlockColumnWriter(Section id, std::uint32_t n_streams)
    : cut_end_(n_streams, 0) {
  dir_.id = id;
  dir_.n_streams = n_streams;
  dir_.block_size = kBlockBytes;
  dir_.stream_raw_len.assign(n_streams, 0);
  cols_.reserve(n_streams);
  for (std::uint32_t s = 0; s < n_streams; ++s) {
    cols_.push_back(std::make_unique<util::ByteWriter>());
  }
}

void BlockColumnWriter::cut_full_blocks() {
  for (std::uint32_t s = 0; s < dir_.n_streams; ++s) {
    while (cols_[s]->size() - cut_end_[s] >= kBlockBytes) {
      cuts_.push_back({s, cut_end_[s]});
      cut_end_[s] += kBlockBytes;
    }
  }
}

void BlockColumnWriter::cut_tails() {
  for (std::uint32_t s = 0; s < dir_.n_streams; ++s) {
    while (cut_end_[s] < cols_[s]->size()) {
      cuts_.push_back({s, cut_end_[s]});
      cut_end_[s] += std::min<std::size_t>(cols_[s]->size() - cut_end_[s], kBlockBytes);
    }
  }
}

util::BytesView BlockColumnWriter::cut_block(std::size_t i) const {
  const Cut& c = cuts_[i];
  const util::BytesView col = cols_[c.stream]->view();
  return col.subspan(c.offset, std::min<std::size_t>(col.size() - c.offset, kBlockBytes));
}

util::BytesView BlockColumnWriter::commit_block(std::size_t i, util::BytesView coded) {
  const util::BytesView raw = cut_block(i);
  BlockInfo b;
  b.stream = cuts_[i].stream;
  b.raw_length = raw.size();
  dir_.stream_raw_len[b.stream] += raw.size();
  // Store-raw threshold: coding must save at least 1/8 of the block, else
  // the block ships uncompressed and decodes as a zero-copy view. The
  // near-incompressible time-delta column (entropy ~7.4 bits/byte) lands
  // here, which cuts most of the range-coder work out of the read path for
  // ~2% of file size.
  if (coded.size() + (raw.size() >> 3) >= raw.size()) {
    b.stored = true;
    b.comp_length = raw.size();
    dir_.blocks.push_back(b);
    obs::count(obs::Counter::kCodecBlocksStored);
    return raw;
  }
  b.comp_length = coded.size();
  dir_.blocks.push_back(b);
  obs::count(obs::Counter::kCodecBlocksEncoded);
  return coded;
}

}  // namespace h2priv::capture
