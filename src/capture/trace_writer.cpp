#include "h2priv/capture/trace_writer.hpp"

#include <atomic>
#include <bit>
#include <span>

#include "h2priv/capture/varint.hpp"
#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/range_coder.hpp"

namespace h2priv::capture {

namespace {

void put_string(util::ByteWriter& w, const std::string& s) {
  put_varint(w, s.size());
  w.bytes(std::string_view{s});
}

/// Wrapping unsigned difference reinterpreted as signed — the delta primitive
/// for monotone-ish u64 fields (seq/ack/offsets). C++20 guarantees the
/// two's-complement round trip.
[[nodiscard]] std::int64_t wrap_delta(std::uint64_t cur, std::uint64_t prev) noexcept {
  return static_cast<std::int64_t>(cur - prev);
}

void put_verdict(util::ByteWriter& w, const ObjectVerdict& v) {
  put_string(w, v.label);
  put_varint(w, v.true_size);
  w.u64(std::bit_cast<std::uint64_t>(v.primary_dom));
  std::uint8_t flags = 0;
  if (v.has_dom) flags |= 0x01;
  if (v.serialized_primary) flags |= 0x02;
  if (v.any_serialized_copy) flags |= 0x04;
  if (v.identified) flags |= 0x08;
  if (v.attack_success) flags |= 0x10;
  w.u8(flags);
}

void put_intervals(util::ByteWriter& w,
                   const std::vector<analysis::ByteInterval>& spans) {
  put_varint(w, spans.size());
  std::uint64_t prev_end = 0;
  for (const analysis::ByteInterval& iv : spans) {
    put_svarint(w, wrap_delta(iv.begin, prev_end));
    put_varint(w, iv.end - iv.begin);
    prev_end = iv.end;
  }
}

/// Range-codes each of `raw` from a reset model into its own slot, on up to
/// `parallelism` workers, each with its own model and scratch buffer. Slot i
/// depends only on raw[i], so the result is the same at any worker count.
/// The calling thread reserves each slot at its block's raw size, which any
/// block that stays coded fits in: glibc keeps what a worker thread
/// allocates in that thread's arena after it is freed, and slots allocated
/// there raised perfbench fleet_capture's peak RSS from ~18.5 to ~21 MiB.
std::vector<util::Bytes> code_blocks(const std::vector<util::BytesView>& raw,
                                     util::Parallelism parallelism) {
  std::vector<util::Bytes> coded(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) coded[i].reserve(raw[i].size());
  const int n = static_cast<int>(raw.size());
  std::atomic<int> next{0};
  util::parallel_for(util::effective_jobs(parallelism, n), parallelism, [&](int) {
    util::RcModel model;
    util::ByteWriter out;
    for (int i = next++; i < n; i = next++) {
      out.clear();
      model.reset();
      (void)util::rc_compress(raw[static_cast<std::size_t>(i)], model, out);
      coded[static_cast<std::size_t>(i)].assign(out.view().begin(), out.view().end());
    }
  });
  return coded;
}

}  // namespace

std::uint64_t encode_ground_truth(util::ByteWriter& buf,
                                  const analysis::GroundTruth& truth) {
  const std::vector<analysis::ResponseInstance>& instances = truth.instances();
  put_varint(buf, instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const analysis::ResponseInstance& inst = instances[i];
    if (inst.id != i + 1) {
      throw TraceError("ground truth instance ids are not sequential");
    }
    put_varint(buf, inst.object_id);
    put_varint(buf, inst.stream_id);
    std::uint8_t flags = 0;
    if (inst.duplicate) flags |= 0x01;
    if (inst.complete) flags |= 0x02;
    buf.u8(flags);
    put_intervals(buf, inst.data);
    put_intervals(buf, inst.headers);
  }
  return instances.size();
}

void encode_summary(util::ByteWriter& buf, const TraceSummary& summary) {
  put_varint(buf, summary.monitor_packets);
  put_svarint(buf, summary.monitor_gets);
  put_verdict(buf, summary.html);
  for (const ObjectVerdict& v : summary.emblems_by_position) put_verdict(buf, v);
  put_varint(buf, summary.predicted_sequence.size());
  for (const std::string& s : summary.predicted_sequence) put_string(buf, s);
  put_svarint(buf, summary.sequence_positions_correct);
}

TraceWriter::TraceWriter(const std::string& path, TraceMeta meta)
    : meta_(std::move(meta)),
      out_(path, std::ios::binary | std::ios::trunc),
      pkt_cols_(Section::kPackets, section_stream_count(Section::kPackets)),
      rec_cols_c2s_(Section::kRecordsC2S, section_stream_count(Section::kRecordsC2S)),
      rec_cols_s2c_(Section::kRecordsS2C, section_stream_count(Section::kRecordsS2C)),
      truth_cols_(Section::kGroundTruth, 1),
      summary_cols_(Section::kSummary, 1),
      fleet_cols_(Section::kFleet, section_stream_count(Section::kFleet)),
      conn_cols_(Section::kConnIds, section_stream_count(Section::kConnIds)) {
  if (!out_) throw TraceError("cannot open trace for writing: " + path);
  util::ByteWriter header(kHeaderBytes);
  header.bytes(util::BytesView{kMagic.data(), kMagic.size()});
  header.u16(kFormatVersion);
  header.u16(0);  // reserved
  header.u32(0);  // reserved
  header.u64(meta_.seed);
  out_.write(reinterpret_cast<const char*>(header.view().data()),
             static_cast<std::streamsize>(header.size()));
  offset_ = kHeaderBytes;
}

TraceWriter::~TraceWriter() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch): best-effort close in a dtor
  }
}

void TraceWriter::begin_fleet(const std::vector<FleetConn>& conns) {
  if (n_packets_ != 0 || n_records_c2s_ != 0 || n_records_s2c_ != 0) {
    throw TraceError("begin_fleet must precede the first observation");
  }
  if (conns.empty()) throw TraceError("fleet trace needs at least one connection");
  fleet_mode_ = true;
  meta_.fleet = true;
  n_conns_ = conns.size();
  util::ByteWriter& buf = fleet_cols_.stream(0);
  put_varint(buf, conns.size());
  util::ByteWriter blob;
  for (const FleetConn& c : conns) {
    put_varint(buf, c.client_seed);
    put_svarint(buf, c.start_offset_ns);
    put_svarint(buf, c.attack_horizon_ns);
    for (const int party : c.party_order) put_svarint(buf, party);
    put_svarint(buf, c.client_hop_delay_ns);
    put_svarint(buf, c.server_hop_delay_ns);
    put_svarint(buf, c.link_rate_bps);
    put_varint(buf, c.cache_hits);
    put_varint(buf, c.cache_misses);
    put_varint(buf, c.cache_stale);
    blob.clear();
    encode_ground_truth(blob, c.truth);
    put_varint(buf, blob.size());
    buf.bytes(blob.view());
    blob.clear();
    encode_summary(blob, c.summary);
    put_varint(buf, blob.size());
    buf.bytes(blob.view());
  }
}

void TraceWriter::add_packet(const analysis::PacketObservation& p,
                             std::uint32_t conn_id) {
  if ((p.flags & 0x80) != 0) {
    // Bit 7 of the packed tag byte carries the direction; no defined TCP
    // sim flag uses it (kFlagSyn..kFlagRst are the low four bits).
    throw TraceError("packet flags bit 7 is reserved");
  }
  if (fleet_mode_ ? conn_id >= n_conns_ : conn_id != 0) {
    throw TraceError("packet connection id out of range");
  }
  if (fleet_mode_) put_varint(conn_cols_.stream(0), conn_id);
  DirDeltas& st = pkt_state_[static_cast<std::size_t>(p.dir)];
  const auto dir_bit = static_cast<std::uint8_t>(static_cast<std::uint8_t>(p.dir) << 7);
  pkt_cols_.stream(0).u8(static_cast<std::uint8_t>(p.flags | dir_bit));
  put_svarint(pkt_cols_.stream(1), wrapping_sub(p.time.ns, prev_pkt_time_ns_));
  // Columns 2-3 store residuals against TCP-structure predictors rather than
  // raw per-field deltas — each prediction is a pure function of already
  // decoded state, and in a well-formed flow the residual is almost always 0:
  //   wire_size  =  payload_len + a constant per-direction header overhead
  //   seq        =  previous seq advanced by the previous payload
  // ack stays a plain same-direction delta: a sender's ack is constant while
  // it transmits, so the delta is already 0 for most packets (measured 2.8
  // bits/value vs 6.8 for an opposite-stream-edge predictor).
  put_svarint(pkt_cols_.stream(2),
              wrapping_sub(
                  wrapping_sub(p.wire_size, static_cast<std::int64_t>(p.payload_len)),
                  wrapping_sub(st.prev_wire, static_cast<std::int64_t>(st.prev_len))));
  put_svarint(pkt_cols_.stream(3), wrap_delta(p.seq, st.prev_seq + st.prev_len));
  put_svarint(pkt_cols_.stream(4), wrap_delta(p.ack, st.prev_ack));
  put_svarint(pkt_cols_.stream(5), wrap_delta(p.payload_len, st.prev_len));
  prev_pkt_time_ns_ = p.time.ns;
  st.prev_wire = p.wire_size;
  st.prev_seq = p.seq;
  st.prev_ack = p.ack;
  st.prev_len = p.payload_len;
  ++n_packets_;
  pkt_cols_.cut_full_blocks();
}

void TraceWriter::add_record(const analysis::RecordObservation& r,
                             std::uint32_t conn_id) {
  const bool c2s = r.dir == net::Direction::kClientToServer;
  if (fleet_mode_ ? conn_id >= n_conns_ : conn_id != 0) {
    throw TraceError("record connection id out of range");
  }
  if (fleet_mode_) put_varint(conn_cols_.stream(c2s ? 1 : 2), conn_id);
  BlockColumnWriter& cols = c2s ? rec_cols_c2s_ : rec_cols_s2c_;
  DirDeltas& st = rec_state_[static_cast<std::size_t>(r.dir)];
  cols.stream(0).u8(static_cast<std::uint8_t>(r.type));
  put_svarint(cols.stream(1), wrapping_sub(r.time.ns, st.prev_time_ns));
  put_svarint(cols.stream(2), wrap_delta(r.ciphertext_len, st.prev_len));
  // Records abut on the stream: the next header sits right after the
  // previous record's 5-byte header + ciphertext, so this residual is 0 for
  // every contiguous record.
  put_svarint(cols.stream(3),
              wrap_delta(r.stream_offset,
                         st.prev_off + st.prev_len + tls::kHeaderBytes));
  st.prev_time_ns = r.time.ns;
  st.prev_len = r.ciphertext_len;
  st.prev_off = r.stream_offset;
  ++(c2s ? n_records_c2s_ : n_records_s2c_);
}

void TraceWriter::set_ground_truth(const analysis::GroundTruth& truth) {
  if (fleet_mode_) {
    throw TraceError("fleet traces carry per-connection ground truth");
  }
  util::ByteWriter& buf = truth_cols_.stream(0);
  buf.clear();
  n_instances_ = encode_ground_truth(buf, truth);
  have_truth_ = true;
}

void TraceWriter::set_summary(const TraceSummary& summary) {
  if (fleet_mode_) {
    throw TraceError("fleet traces carry per-connection summaries");
  }
  util::ByteWriter& buf = summary_cols_.stream(0);
  buf.clear();
  encode_summary(buf, summary);
  have_summary_ = true;
}

void TraceWriter::write_raw(util::BytesView bytes) {
  if (bytes.empty()) return;
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  offset_ += bytes.size();
}

void TraceWriter::write_section(Section id, util::BytesView payload,
                                std::uint64_t count) {
  sections_.push_back({id, offset_, payload.size(), count, false});
  write_raw(payload);
}

std::uint64_t TraceWriter::finish(util::Parallelism parallelism) {
  if (finished_) return offset_;
  struct Compressed {
    BlockColumnWriter* cols;
    Section id;
    std::uint64_t count;
  };
  // Disk order. kConnIds' count mirrors the packets section; record-id
  // stream lengths are bounded by the record sections' counts at decode time.
  std::vector<Compressed> compressed{
      {&pkt_cols_, Section::kPackets, n_packets_},
      {&rec_cols_c2s_, Section::kRecordsC2S, n_records_c2s_},
      {&rec_cols_s2c_, Section::kRecordsS2C, n_records_s2c_}};
  if (have_truth_) {
    compressed.push_back({&truth_cols_, Section::kGroundTruth, n_instances_});
  }
  if (have_summary_) compressed.push_back({&summary_cols_, Section::kSummary, 1});
  if (fleet_mode_) {
    compressed.push_back({&fleet_cols_, Section::kFleet, n_conns_});
    compressed.push_back({&conn_cols_, Section::kConnIds, n_packets_});
  }

  // Every block of the trace is coded in one pass; what follows it (the
  // stored-or-coded choice, the directory rows, the codec counters and the
  // writes) runs serially in disk order.
  std::vector<util::BytesView> raw;
  for (const Compressed& c : compressed) {
    c.cols->cut_tails();
    for (std::size_t i = 0; i < c.cols->n_cuts(); ++i) {
      raw.push_back(c.cols->cut_block(i));
    }
  }
  const std::vector<util::Bytes> coded = code_blocks(raw, parallelism);

  util::ByteWriter meta_buf;
  put_varint(meta_buf, meta_.seed);
  put_string(meta_buf, meta_.scenario);
  put_string(meta_buf, meta_.site);
  std::uint8_t flags = 0;
  if (meta_.attack_enabled) flags |= 0x01;
  if (meta_.pad_sensitive_objects) flags |= 0x02;
  if (meta_.push_emblems) flags |= 0x04;
  if (meta_.manual_spacing_ns.has_value()) flags |= 0x08;
  if (meta_.manual_bandwidth_bps.has_value()) flags |= 0x10;
  if (meta_.defense.enabled()) flags |= 0x20;
  if (fleet_mode_) flags |= 0x40;
  meta_buf.u8(flags);
  if (meta_.manual_spacing_ns) put_svarint(meta_buf, *meta_.manual_spacing_ns);
  if (meta_.manual_bandwidth_bps) put_svarint(meta_buf, *meta_.manual_bandwidth_bps);
  put_svarint(meta_buf, meta_.deadline_ns);
  put_svarint(meta_buf, meta_.attack_horizon_ns);
  for (const int party : meta_.party_order) put_svarint(meta_buf, party);
  if (meta_.defense.enabled()) {
    // Defense block (flag 0x20): appended after party_order so undefended
    // traces keep the exact pre-defense meta byte layout.
    const defense::DefenseConfig& d = meta_.defense;
    meta_buf.u8(static_cast<std::uint8_t>(d.padding));
    put_varint(meta_buf, d.pad_bucket);
    put_varint(meta_buf, d.pad_random_max);
    put_varint(meta_buf, d.record_bucket);
    put_svarint(meta_buf, d.shape_interval.ns);
    put_svarint(meta_buf, d.shape_rate.bits_per_sec);
    meta_buf.u8(d.randomize_priority ? 1 : 0);
  }

  std::span<const util::Bytes> pending(coded);
  for (const Compressed& c : compressed) {
    const std::uint64_t start = offset_;
    c.cols->commit(pending.first(c.cols->n_cuts()),
                   [&](util::BytesView b) { write_raw(b); });
    pending = pending.subspan(c.cols->n_cuts());
    sections_.push_back({c.id, start, offset_ - start, c.count, true});
    index_.push_back(c.cols->directory());
    if (c.id == Section::kPackets) write_section(Section::kMeta, meta_buf.view(), 1);
  }

  util::ByteWriter index_buf;
  encode_block_index(index_buf, index_);
  write_section(Section::kBlockIndex, index_buf.view(), index_.size());

  const std::uint64_t trailer_offset = offset_;
  util::ByteWriter trailer(sections_.size() * kSectionEntryBytes + kTrailerTailBytes);
  for (const SectionEntry& e : sections_) {
    trailer.u32(static_cast<std::uint32_t>(e.id) |
                (e.compressed ? kSectionCompressedFlag : 0u));
    trailer.u64(e.offset);
    trailer.u64(e.length);
    trailer.u64(e.count);
  }
  trailer.u32(static_cast<std::uint32_t>(sections_.size()));
  trailer.u64(trailer_offset);
  trailer.bytes(util::BytesView{kEndMagic.data(), kEndMagic.size()});
  write_raw(trailer.view());

  out_.flush();
  if (!out_) throw TraceError("trace write failed (disk full or closed stream?)");
  out_.close();
  finished_ = true;

  const std::uint64_t n_records = n_records_c2s_ + n_records_s2c_;
  obs::count(obs::Counter::kCaptureTracesWritten);
  obs::count(obs::Counter::kCaptureBytesWritten, offset_);
  obs::count(obs::Counter::kCapturePacketsWritten, n_packets_);
  obs::count(obs::Counter::kCaptureRecordsWritten, n_records);
  obs::count(obs::Counter::kCaptureRawBytes,
             n_packets_ * kRawPacketBytes + n_records * kRawRecordBytes);
  return offset_;
}

}  // namespace h2priv::capture
