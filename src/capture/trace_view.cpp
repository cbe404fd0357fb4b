#include "h2priv/capture/trace_view.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

#include "h2priv/capture/varint.hpp"
#include "h2priv/obs/metrics.hpp"

namespace h2priv::capture {

namespace {

/// Runs a decoder body, converting the bounds/format exceptions the byte
/// primitives throw into the TraceError every reader path promises.
template <typename Fn>
auto decode_guard(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const util::OutOfBounds& e) {
    throw TraceError(std::string("truncated section: ") + e.what());
  } catch (const std::invalid_argument& e) {
    throw TraceError(std::string("malformed section: ") + e.what());
  }
}

[[nodiscard]] std::string get_string(util::ByteReader& r) {
  const std::uint64_t n = get_varint(r);
  const util::BytesView v = r.bytes(static_cast<std::size_t>(n));
  return {reinterpret_cast<const char*>(v.data()), v.size()};
}

[[nodiscard]] ObjectVerdict get_verdict(util::ByteReader& r) {
  ObjectVerdict v;
  v.label = get_string(r);
  v.true_size = get_varint(r);
  v.primary_dom = std::bit_cast<double>(r.u64());
  const std::uint8_t flags = r.u8();
  v.has_dom = (flags & 0x01) != 0;
  v.serialized_primary = (flags & 0x02) != 0;
  v.any_serialized_copy = (flags & 0x04) != 0;
  v.identified = (flags & 0x08) != 0;
  v.attack_success = (flags & 0x10) != 0;
  return v;
}

/// Decodes one interval list straight onto `out`. Empty intervals are
/// dropped, as GroundTruth::record_data drops them when a run records.
void get_intervals(util::ByteReader& r, std::vector<analysis::ByteInterval>& out) {
  const std::uint64_t n = get_varint(r);
  // Each interval costs at least 2 bytes (one svarint + one varint), so a
  // count the payload cannot hold is corruption — refuse before reserving.
  if (n > r.remaining() / 2) {
    throw std::invalid_argument("interval count exceeds payload");
  }
  out.reserve(static_cast<std::size_t>(n));
  std::uint64_t prev_end = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    analysis::ByteInterval iv;
    iv.begin = prev_end + static_cast<std::uint64_t>(get_svarint(r));
    iv.end = iv.begin + get_varint(r);
    prev_end = iv.end;
    if (iv.size() != 0) out.push_back(iv);
  }
}

/// Minimum encoded footprint of one entry, used to reject section counts the
/// byte length cannot possibly hold (a fuzzed count would otherwise drive a
/// multi-gigabyte reserve()).
[[nodiscard]] constexpr std::uint64_t min_entry_bytes(Section id) noexcept {
  switch (id) {
    case Section::kPackets:
      return 6;  // tag byte + five delta varints
    case Section::kRecordsC2S:
    case Section::kRecordsS2C:
      return 4;  // type byte + three delta varints
    default:
      return 0;  // count is informational for the buffered sections
  }
}

}  // namespace

std::uint64_t fnv1a_update(std::uint64_t h, util::BytesView data) noexcept {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<SectionInfo> validate_and_index(util::BytesView image,
                                            std::uint16_t* version_out) {
  const std::size_t min_size = kHeaderBytes + kTrailerTailBytes;
  if (image.size() < min_size) throw TraceError("truncated trace (too small)");
  if (!std::equal(kMagic.begin(), kMagic.end(), image.begin())) {
    throw TraceError("bad magic: not an .h2t trace");
  }
  util::ByteReader header(image.first(kHeaderBytes));
  header.skip(kMagic.size());
  const std::uint16_t version = header.u16();
  if (version < kMinReadVersion || version > kFormatVersion) {
    throw TraceError("unsupported trace version " + std::to_string(version) +
                     " (readable: " + std::to_string(kMinReadVersion) + ".." +
                     std::to_string(kFormatVersion) + ")");
  }
  if (version_out != nullptr) *version_out = version;
  if (!std::equal(kEndMagic.begin(), kEndMagic.end(),
                  image.end() - static_cast<std::ptrdiff_t>(kEndMagic.size()))) {
    throw TraceError("bad end magic: trace is truncated or corrupt");
  }

  // Locate the section table from the fixed-size trailer tail.
  util::ByteReader tail(image.last(kTrailerTailBytes));
  const std::uint32_t n_sections = tail.u32();
  const std::uint64_t table_offset = tail.u64();
  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(n_sections) * kSectionEntryBytes;
  if (table_offset < kHeaderBytes || table_offset > image.size() ||
      image.size() - table_offset < table_bytes + kTrailerTailBytes) {
    throw TraceError("trailer table out of range");
  }
  util::ByteReader table(
      image.subspan(static_cast<std::size_t>(table_offset),
                    static_cast<std::size_t>(table_bytes)));
  std::vector<SectionInfo> sections;
  sections.reserve(n_sections);
  for (std::uint32_t i = 0; i < n_sections; ++i) {
    SectionInfo s;
    const std::uint32_t raw_id = table.u32();
    s.compressed = (raw_id & kSectionCompressedFlag) != 0;
    s.id = static_cast<Section>(raw_id & ~kSectionCompressedFlag);
    s.offset = table.u64();
    s.length = table.u64();
    s.count = table.u64();
    s.raw_length = s.length;  // corrected from the block index when compressed
    if (s.compressed && version < 2) {
      throw TraceError("compressed section in a v1 trace");
    }
    if (version < 2 && (s.id == Section::kFleet || s.id == Section::kConnIds)) {
      // Fleet sections were introduced with the v2 writer; a v1 file
      // carrying one is forged or corrupt, not a legacy layout.
      throw TraceError("fleet section in a v1 trace");
    }
    if (s.compressed && section_stream_count(s.id) == 0) {
      // kMeta must decode at open and kBlockIndex is the decompression
      // bootstrap — neither may itself be compressed.
      throw TraceError("section may not be compressed");
    }
    // Every payload lives between the header and the trailer table.
    if (s.offset < kHeaderBytes || s.offset > table_offset ||
        table_offset - s.offset < s.length) {
      throw TraceError("section out of range");
    }
    // Compressed sections re-run this plausibility check in the raw domain
    // once the block index is decoded (trace_codec.cpp).
    const std::uint64_t min_entry = min_entry_bytes(s.id);
    if (!s.compressed && min_entry != 0 && s.length / min_entry < s.count) {
      throw TraceError("section count inconsistent with length");
    }
    sections.push_back(s);
  }

  // Payloads must not overlap one another: sort by offset and require each
  // (non-empty) section to start at or after its predecessor's end.
  std::vector<std::size_t> order(sections.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sections[a].offset < sections[b].offset;
  });
  std::uint64_t prev_end = kHeaderBytes;
  for (const std::size_t i : order) {
    const SectionInfo& s = sections[i];
    if (s.length == 0) continue;
    if (s.offset < prev_end) throw TraceError("overlapping sections");
    prev_end = s.offset + s.length;
  }
  return sections;
}

const SectionInfo* find_section(const std::vector<SectionInfo>& sections,
                                Section id) noexcept {
  for (const SectionInfo& s : sections) {
    if (s.id == id) return &s;
  }
  return nullptr;
}

util::BytesView section_view(util::BytesView image, const SectionInfo& s) {
  if (s.offset > image.size() || image.size() - s.offset < s.length) {
    throw TraceError("section extends past end of file");
  }
  return image.subspan(static_cast<std::size_t>(s.offset),
                       static_cast<std::size_t>(s.length));
}

TraceMeta decode_meta(util::BytesView payload) {
  return decode_guard([&] {
    util::ByteReader r(payload);
    TraceMeta meta;
    meta.seed = get_varint(r);
    meta.scenario = get_string(r);
    meta.site = get_string(r);
    const std::uint8_t flags = r.u8();
    meta.attack_enabled = (flags & 0x01) != 0;
    meta.pad_sensitive_objects = (flags & 0x02) != 0;
    meta.push_emblems = (flags & 0x04) != 0;
    meta.fleet = (flags & 0x40) != 0;
    if ((flags & 0x08) != 0) meta.manual_spacing_ns = get_svarint(r);
    if ((flags & 0x10) != 0) meta.manual_bandwidth_bps = get_svarint(r);
    meta.deadline_ns = get_svarint(r);
    meta.attack_horizon_ns = get_svarint(r);
    for (int& party : meta.party_order) {
      party = static_cast<int>(get_svarint(r));
    }
    if ((flags & 0x20) != 0) {
      defense::DefenseConfig& d = meta.defense;
      const std::uint8_t policy = r.u8();
      if (policy > static_cast<std::uint8_t>(defense::PaddingPolicy::kPadToBucket)) {
        throw TraceError("invalid padding policy in defense block");
      }
      d.padding = static_cast<defense::PaddingPolicy>(policy);
      d.pad_bucket = static_cast<std::size_t>(get_varint(r));
      d.pad_random_max = static_cast<std::uint8_t>(get_varint(r));
      d.record_bucket = static_cast<std::size_t>(get_varint(r));
      d.shape_interval.ns = get_svarint(r);
      d.shape_rate.bits_per_sec = get_svarint(r);
      d.randomize_priority = r.u8() != 0;
    }
    return meta;
  });
}

analysis::GroundTruth decode_ground_truth(util::BytesView payload) {
  return decode_guard([&] {
    util::ByteReader r(payload);
    const std::uint64_t n = get_varint(r);
    // Each instance costs at least 5 bytes (object id, stream id, flags and
    // two interval counts); refuse a count the payload cannot hold before
    // reserving.
    if (n > r.remaining() / 5) {
      throw std::invalid_argument("instance count exceeds payload");
    }
    std::vector<analysis::ResponseInstance> instances(static_cast<std::size_t>(n));
    for (analysis::ResponseInstance& inst : instances) {
      inst.object_id = static_cast<web::ObjectId>(get_varint(r));
      inst.stream_id = static_cast<std::uint32_t>(get_varint(r));
      const std::uint8_t flags = r.u8();
      inst.duplicate = (flags & 0x01) != 0;
      get_intervals(r, inst.data);
      get_intervals(r, inst.headers);
      inst.complete = (flags & 0x02) != 0;
    }
    return analysis::GroundTruth(std::move(instances));
  });
}

std::vector<FleetConn> decode_fleet(util::BytesView payload, std::uint64_t count) {
  return decode_guard([&] {
    util::ByteReader r(payload);
    const std::uint64_t n = get_varint(r);
    if (n != count) throw TraceError("fleet connection count disagrees with trailer");
    if (n == 0) throw TraceError("fleet section with no connections");
    // Each connection row costs well over one byte; refuse counts the
    // payload cannot hold before reserving.
    if (n > r.remaining()) {
      throw std::invalid_argument("fleet count exceeds payload");
    }
    std::vector<FleetConn> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      FleetConn c;
      c.client_seed = get_varint(r);
      c.start_offset_ns = get_svarint(r);
      c.attack_horizon_ns = get_svarint(r);
      for (int& party : c.party_order) party = static_cast<int>(get_svarint(r));
      c.client_hop_delay_ns = get_svarint(r);
      c.server_hop_delay_ns = get_svarint(r);
      c.link_rate_bps = get_svarint(r);
      c.cache_hits = get_varint(r);
      c.cache_misses = get_varint(r);
      c.cache_stale = get_varint(r);
      const std::uint64_t truth_len = get_varint(r);
      c.truth = decode_ground_truth(r.bytes(static_cast<std::size_t>(truth_len)));
      const std::uint64_t summary_len = get_varint(r);
      c.summary = decode_summary(r.bytes(static_cast<std::size_t>(summary_len)));
      out.push_back(std::move(c));
    }
    return out;
  });
}

TraceSummary decode_summary(util::BytesView payload) {
  return decode_guard([&] {
    util::ByteReader r(payload);
    TraceSummary sum;
    sum.monitor_packets = get_varint(r);
    sum.monitor_gets = get_svarint(r);
    sum.html = get_verdict(r);
    for (ObjectVerdict& v : sum.emblems_by_position) v = get_verdict(r);
    const std::uint64_t n = get_varint(r);
    if (n > r.remaining()) {  // >= 1 byte per encoded string
      throw std::invalid_argument("sequence count exceeds payload");
    }
    sum.predicted_sequence.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      sum.predicted_sequence.push_back(get_string(r));
    }
    sum.sequence_positions_correct = get_svarint(r);
    return sum;
  });
}

bool PacketCursor::next(analysis::PacketObservation& out) {
  if (left_ == 0) return false;
  return decode_guard([&] {
    const std::uint8_t tag = cols_[0].u8();
    out.dir = static_cast<net::Direction>(tag >> 7);
    out.flags = static_cast<std::uint8_t>(tag & 0x7f);
    DirState& d = dirs_[static_cast<std::size_t>(out.dir)];
    out.time.ns = wrapping_add(prev_time_ns_, cols_[1].svarint());
    // v2 stores columns 2-3 as residuals against TCP-structure predictors
    // (see TraceWriter::add_packet), v1 as plain deltas: v2 predicts seq as
    // the previous seq advanced by the previous payload, and wire_size minus
    // payload_len as a constant per-direction overhead.
    const bool v2 = cols_.split();
    const std::int64_t wire_delta = cols_[2].svarint();
    out.seq =
        (v2 ? d.seq + d.len : d.seq) + static_cast<std::uint64_t>(cols_[3].svarint());
    out.ack = d.ack + static_cast<std::uint64_t>(cols_[4].svarint());
    out.payload_len = static_cast<std::size_t>(
        d.len + static_cast<std::uint64_t>(cols_[5].svarint()));
    const std::uint64_t payload_change = v2 ? out.payload_len - d.len : 0;
    out.wire_size = wrapping_add(wrapping_add(d.wire, wire_delta),
                                 static_cast<std::int64_t>(payload_change));
    if (out.payload_len > kMaxPacketPayload) {
      throw TraceError("packet payload_len " + std::to_string(out.payload_len) +
                       " exceeds " + std::to_string(kMaxPacketPayload));
    }
    prev_time_ns_ = out.time.ns;
    d.wire = out.wire_size;
    d.seq = out.seq;
    d.ack = out.ack;
    d.len = out.payload_len;
    --left_;
    return true;
  });
}

TraceFile TraceFile::open(const std::string& path) {
  TraceFile f;
  try {
    f.mapped_ = util::MappedFile::open(path);
  } catch (const std::runtime_error& e) {
    throw TraceError(std::string("cannot open trace: ") + e.what());
  }
  f.image_ = f.mapped_.view();
  f.index();
  obs::count(obs::Counter::kCorpusBytesMapped, f.image_.size());
  return f;
}

TraceFile::TraceFile(util::Bytes image) : owned_(std::move(image)) {
  image_ = util::BytesView{owned_.data(), owned_.size()};
  index();
}

void TraceFile::index() {
  sections_ = validate_and_index(image_, &version_);
  bool any_compressed = false;
  for (const SectionInfo& s : sections_) any_compressed = any_compressed || s.compressed;
  if (any_compressed) {
    const SectionInfo* bi = section(Section::kBlockIndex);
    if (bi == nullptr) {
      throw TraceError("compressed sections without a block index");
    }
    blocks_ = std::make_unique<BlockDirectory>(
        decode_block_index(section_view(image_, *bi), sections_));
    for (SectionInfo& s : sections_) {
      if (!s.compressed) continue;
      const SectionBlocks* sb = blocks_->find(s.id);
      s.raw_length = 0;
      for (const std::uint64_t len : sb->stream_raw_len) s.raw_length += len;
    }
  }
  if (const SectionInfo* s = section(Section::kMeta)) {
    meta_ = decode_meta(section_view(image_, *s));
  }
}

util::BytesView TraceFile::section_bytes(Section id) const {
  const SectionInfo* s = section(id);
  if (s == nullptr) {
    throw TraceError("trace has no section " +
                     std::to_string(static_cast<std::uint32_t>(id)));
  }
  return section_view(image_, *s);
}

std::uint64_t TraceFile::packet_count() const noexcept {
  const SectionInfo* s = section(Section::kPackets);
  return s != nullptr ? s->count : 0;
}

template <std::size_t N>
ColumnReaders<N> TraceFile::columns(const SectionInfo& s) const {
  const util::BytesView payload = section_view(image_, s);
  if (!s.compressed) return ColumnReaders<N>(payload);
  return {payload, *blocks_->find(s.id), *blocks_};
}

util::BytesView TraceFile::whole_section(Section id, const char* name,
                                         util::Bytes& buf) const {
  const SectionInfo* s = section(id);
  if (s == nullptr) throw TraceError(std::string("trace has no ") + name + " section");
  const util::BytesView payload = section_view(image_, *s);
  if (!s->compressed) return payload;
  decompress_section(payload, *blocks_->find(id), blocks_->model, buf);
  return {buf.data(), buf.size()};
}

PacketCursor TraceFile::packets() const {
  const SectionInfo* s = section(Section::kPackets);
  if (s == nullptr) return {ColumnReaders<6>{}, 0};
  return {columns<6>(*s), s->count};
}

std::vector<analysis::RecordObservation> TraceFile::records(
    net::Direction dir) const {
  const Section id = dir == net::Direction::kClientToServer ? Section::kRecordsC2S
                                                            : Section::kRecordsS2C;
  const SectionInfo* s = section(id);
  if (s == nullptr) return {};
  return decode_guard([&] {
    ColumnReaders<4> cols = columns<4>(*s);  // type, dtime, dlen, doff
    std::vector<analysis::RecordObservation> out;
    out.reserve(static_cast<std::size_t>(s->count));
    std::int64_t prev_time_ns = 0;
    std::uint64_t prev_len = 0, prev_off = 0;
    for (std::uint64_t i = 0; i < s->count; ++i) {
      analysis::RecordObservation rec;
      rec.dir = dir;
      rec.type = static_cast<tls::ContentType>(cols[0].u8());
      rec.time.ns = wrapping_add(prev_time_ns, cols[1].svarint());
      rec.ciphertext_len = static_cast<std::size_t>(
          prev_len + static_cast<std::uint64_t>(cols[2].svarint()));
      // v2 stores the offset residual against the contiguous-records
      // predictor (see TraceWriter::add_record), v1 the plain delta.
      const std::uint64_t predicted =
          cols.split() ? prev_off + prev_len + tls::kHeaderBytes : prev_off;
      rec.stream_offset = predicted + static_cast<std::uint64_t>(cols[3].svarint());
      prev_time_ns = rec.time.ns;
      prev_len = rec.ciphertext_len;
      prev_off = rec.stream_offset;
      out.push_back(rec);
    }
    return out;
  });
}

analysis::GroundTruth TraceFile::ground_truth() const {
  util::Bytes buf;
  return decode_ground_truth(whole_section(Section::kGroundTruth, "ground-truth", buf));
}

TraceSummary TraceFile::summary() const {
  util::Bytes buf;
  return decode_summary(whole_section(Section::kSummary, "summary", buf));
}

std::vector<FleetConn> TraceFile::fleet() const {
  util::Bytes buf;
  const util::BytesView payload = whole_section(Section::kFleet, "fleet", buf);
  return decode_fleet(payload, section(Section::kFleet)->count);
}

ConnIdColumns TraceFile::conn_ids() const {
  const SectionInfo* s = section(Section::kConnIds);
  if (s == nullptr) throw TraceError("trace has no connection-id section");
  const SectionInfo* fleet_s = section(Section::kFleet);
  if (fleet_s == nullptr) {
    throw TraceError("connection ids without a fleet section");
  }
  if (!s->compressed) {
    // The writer always emits kConnIds through the block codec; a raw
    // payload has no defined column layout.
    throw TraceError("connection-id section must be block-compressed");
  }
  const SectionInfo* pkts = section(Section::kPackets);
  if (pkts == nullptr || pkts->count != s->count) {
    throw TraceError("connection-id count disagrees with packets section");
  }
  const std::uint64_t n_conns = fleet_s->count;
  const SectionInfo* c2s = section(Section::kRecordsC2S);
  const SectionInfo* s2c = section(Section::kRecordsS2C);
  const util::BytesView payload = section_view(image_, *s);
  const SectionBlocks& sb = *blocks_->find(s->id);
  return decode_guard([&] {
    ConnIdColumns out;
    const auto read_column = [&](std::uint32_t stream, std::uint64_t count,
                                 std::vector<std::uint32_t>& ids) {
      StreamReader r(payload, sb, stream, *blocks_);
      ids.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t id = r.varint();
        if (id >= n_conns) throw TraceError("connection id out of range");
        ids.push_back(static_cast<std::uint32_t>(id));
      }
      if (r.remaining() != 0) {
        throw TraceError("trailing bytes in connection-id stream");
      }
    };
    read_column(0, s->count, out.packets);
    read_column(1, c2s != nullptr ? c2s->count : 0, out.records_c2s);
    read_column(2, s2c != nullptr ? s2c->count : 0, out.records_s2c);
    return out;
  });
}

std::uint64_t TraceFile::digest() const {
  if (!digest_) digest_ = fnv1a_update(kFnv1aInit, image_);
  return *digest_;
}

}  // namespace h2priv::capture
