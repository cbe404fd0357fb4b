#include "h2priv/capture/replay.hpp"

#include <algorithm>

#include "h2priv/capture/record.hpp"
#include "h2priv/core/experiment.hpp"
#include "h2priv/tls/record.hpp"

namespace h2priv::capture {

namespace {

/// The synthetic byte stream one direction carried, materialized a packet at
/// a time: given a [start, start+len) range of stream offsets, writes the
/// bytes the stream holds there — zeros, overlapped by a real TLS header at
/// every recorded record offset and, when the stream ends mid-record, a
/// phantom header whose declared body can never complete within the
/// remaining bytes. O(1) memory beyond the record vector the caller owns.
class ChunkSynthesizer {
 public:
  ChunkSynthesizer(const std::vector<analysis::RecordObservation>& records,
                   std::uint64_t total)
      : records_(records), total_(total) {
    std::uint64_t prev = 0;
    for (const analysis::RecordObservation& rec : records_) {
      const std::uint64_t off = rec.stream_offset;
      if (off + tls::kHeaderBytes > total_) {
        throw TraceError("record header extends past the synthesized stream");
      }
      if (off < prev) {
        // The per-packet binary search needs offset order; TraceWriter
        // always emits it (records surface in stream order).
        throw TraceError("records not sorted by stream offset");
      }
      prev = off;
      last_end_ = std::max(last_end_, off + tls::kHeaderBytes + rec.ciphertext_len);
    }
    // Trailing bytes belong to a record the live run never saw complete.
    // Fewer than 5 of them can't even form a header (the scanner just
    // waits); for 5+ plant a phantom application-data header declaring the
    // maximum body — the scanner parses it and waits forever, exactly like
    // the live partial record, as long as the remainder can't satisfy the
    // declared length.
    const std::uint64_t trailing = total_ - last_end_;
    if (trailing >= tls::kHeaderBytes) {
      if (trailing - tls::kHeaderBytes >= 0xffff) {
        throw TraceError("unfinished trailing record too large to synthesize");
      }
      has_phantom_ = true;
    }
  }

  /// Writes stream bytes [start, start+len) into `scratch` and returns a
  /// view of them. The view is valid until the next call.
  [[nodiscard]] util::BytesView materialize(std::uint64_t start, std::size_t len,
                                            util::Bytes& scratch) const {
    scratch.assign(len, 0);
    const std::uint64_t end = start + len;
    // First record whose 5-byte header could reach into [start, end).
    auto it = std::lower_bound(
        records_.begin(), records_.end(), start,
        [](const analysis::RecordObservation& rec, std::uint64_t s) {
          return rec.stream_offset + tls::kHeaderBytes <= s;
        });
    for (; it != records_.end() && it->stream_offset < end; ++it) {
      plant_header(scratch, start, end, it->stream_offset,
                   static_cast<std::uint8_t>(it->type),
                   static_cast<std::uint16_t>(it->ciphertext_len));
    }
    if (has_phantom_ && last_end_ < end &&
        last_end_ + tls::kHeaderBytes > start) {
      plant_header(scratch, start, end, last_end_,
                   static_cast<std::uint8_t>(tls::ContentType::kApplicationData),
                   0xffff);
    }
    return {scratch.data(), scratch.size()};
  }

 private:
  /// Copies the overlap of one 5-byte header at `hdr_off` into the scratch
  /// range [start, end).
  static void plant_header(util::Bytes& scratch, std::uint64_t start,
                           std::uint64_t end, std::uint64_t hdr_off,
                           std::uint8_t type, std::uint16_t body_len) {
    const std::array<std::uint8_t, tls::kHeaderBytes> header = {
        type,
        static_cast<std::uint8_t>(tls::kVersionTls12 >> 8),
        static_cast<std::uint8_t>(tls::kVersionTls12 & 0xff),
        static_cast<std::uint8_t>(body_len >> 8),
        static_cast<std::uint8_t>(body_len & 0xff)};
    const std::uint64_t from = std::max(hdr_off, start);
    const std::uint64_t to = std::min(hdr_off + tls::kHeaderBytes, end);
    for (std::uint64_t at = from; at < to; ++at) {
      scratch[static_cast<std::size_t>(at - start)] =
          header[static_cast<std::size_t>(at - hdr_off)];
    }
  }

  const std::vector<analysis::RecordObservation>& records_;
  std::uint64_t total_ = 0;
  std::uint64_t last_end_ = 0;
  bool has_phantom_ = false;
};

/// The one replay feed loop. Pass 1 sizes each direction's stream from the
/// packets; pass 2 streams every packet through `monitor` with its payload
/// materialized into one reusable scratch buffer. `for_each_packet(fn)` must
/// call fn on every packet in capture order, and be callable twice.
template <typename ForEachPacket>
void feed(const ForEachPacket& for_each_packet,
          const std::vector<analysis::RecordObservation>& c2s,
          const std::vector<analysis::RecordObservation>& s2c,
          core::TrafficMonitor& monitor) {
  // Data byte at TCP seq s sits at stream offset s-1 (SYN occupies seq 0).
  std::array<std::uint64_t, 2> total{};
  for_each_packet([&](const analysis::PacketObservation& p) {
    if (p.payload_len == 0) return;
    if (p.seq == 0) throw TraceError("data packet with seq 0 (pre-SYN payload?)");
    std::uint64_t& t = total[static_cast<std::size_t>(p.dir)];
    t = std::max(t, p.seq - 1 + p.payload_len);
  });
  const std::array<ChunkSynthesizer, 2> synth = {ChunkSynthesizer(c2s, total[0]),
                                                 ChunkSynthesizer(s2c, total[1])};
  util::Bytes scratch;
  for_each_packet([&](const analysis::PacketObservation& p) {
    util::BytesView payload;
    if (p.payload_len > 0) {
      payload = synth[static_cast<std::size_t>(p.dir)].materialize(
          p.seq - 1, p.payload_len, scratch);
    }
    monitor.observe(p, payload);
  });
}

[[nodiscard]] bool same_records(const std::vector<analysis::RecordObservation>& a,
                                const std::vector<analysis::RecordObservation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].dir != b[i].dir || a[i].type != b[i].type ||
        a[i].ciphertext_len != b[i].ciphertext_len ||
        a[i].stream_offset != b[i].stream_offset) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] ReplayResult finish_replay(
    const TraceMeta& meta, const analysis::GroundTruth& truth,
    const core::TrafficMonitor& monitor,
    const std::vector<analysis::RecordObservation>& stored_c2s,
    const std::vector<analysis::RecordObservation>& stored_s2c,
    const std::optional<TraceSummary>& stored_summary) {
  ReplayResult result;
  result.records_match =
      same_records(monitor.records(net::Direction::kClientToServer), stored_c2s) &&
      same_records(monitor.records(net::Direction::kServerToClient), stored_s2c);

  const core::ObjectPredictor predictor(monitor.records(net::Direction::kServerToClient),
                                        core::isidewith_catalog());
  result.summary = score_with_predictor(meta, truth, predictor,
                                        monitor.packets_seen(),
                                        monitor.get_count());
  result.summary_matches =
      stored_summary.has_value() && *stored_summary == result.summary;
  return result;
}

}  // namespace

void replay_into(const TraceFile& trace, core::TrafficMonitor& monitor) {
  const auto for_each_packet = [&trace](const auto& fn) {
    analysis::PacketObservation p;
    for (PacketCursor cursor = trace.packets(); cursor.next(p);) fn(p);
  };
  const std::vector<analysis::RecordObservation> c2s =
      trace.records(net::Direction::kClientToServer);
  const std::vector<analysis::RecordObservation> s2c =
      trace.records(net::Direction::kServerToClient);
  feed(for_each_packet, c2s, s2c, monitor);
}

std::int64_t count_gets(std::span<const analysis::RecordObservation> c2s_records) {
  core::GetFilter filter;
  return std::count_if(c2s_records.begin(), c2s_records.end(),
                       [&filter](const analysis::RecordObservation& rec) {
                         return filter.counts(rec);
                       });
}

TraceSummary score_with_predictor(const TraceMeta& meta,
                                  const analysis::GroundTruth& truth,
                                  const core::ObjectPredictor& predictor,
                                  std::uint64_t monitor_packets,
                                  std::int64_t monitor_gets) {
  // The site model is a pure function of the padding flag; build each once.
  static const web::IsideWithSite kPlainSite = web::build_isidewith_site(false);
  static const web::IsideWithSite kPaddedSite = web::build_isidewith_site(true);
  const web::IsideWithSite& site = meta.pad_sensitive_objects ? kPaddedSite : kPlainSite;
  const util::TimePoint horizon{meta.attack_horizon_ns};
  core::RunResult scored;
  core::score_run(site, meta.party_order, truth, predictor, horizon, scored);
  TraceSummary sum = summary_of(scored);
  sum.monitor_packets = monitor_packets;
  sum.monitor_gets = monitor_gets;
  return sum;
}

std::vector<DemuxedConn> demux_fleet(const TraceFile& trace) {
  if (!trace.meta().fleet) throw TraceError("not a fleet trace");
  std::vector<FleetConn> conns = trace.fleet();
  const ConnIdColumns ids = trace.conn_ids();
  std::vector<DemuxedConn> out(conns.size());
  for (std::size_t i = 0; i < conns.size(); ++i) {
    DemuxedConn& d = out[i];
    d.meta = trace.meta();
    d.meta.fleet = false;
    d.meta.seed = conns[i].client_seed;
    d.meta.party_order = conns[i].party_order;
    d.meta.attack_horizon_ns = conns[i].attack_horizon_ns;
    d.info = std::move(conns[i]);
  }

  analysis::PacketObservation p;
  std::size_t idx = 0;
  for (PacketCursor cursor = trace.packets(); cursor.next(p); ++idx) {
    DemuxedConn& d = out[ids.packets[idx]];  // ids validated < conns.size()
    p.time.ns -= d.info.start_offset_ns;
    d.packets.push_back(p);
  }
  for (const auto dir :
       {net::Direction::kClientToServer, net::Direction::kServerToClient}) {
    const bool c2s = dir == net::Direction::kClientToServer;
    const std::vector<std::uint32_t>& col = c2s ? ids.records_c2s : ids.records_s2c;
    std::vector<analysis::RecordObservation> recs = trace.records(dir);
    if (recs.size() != col.size()) {
      throw TraceError("record count disagrees with connection-id column");
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      DemuxedConn& d = out[col[i]];
      recs[i].time.ns -= d.info.start_offset_ns;
      (c2s ? d.records_c2s : d.records_s2c).push_back(recs[i]);
    }
  }
  return out;
}

ReplayResult replay_conn(const DemuxedConn& conn) {
  core::TrafficMonitor monitor;
  const auto for_each_packet = [&conn](const auto& fn) {
    for (const analysis::PacketObservation& p : conn.packets) fn(p);
  };
  feed(for_each_packet, conn.records_c2s, conn.records_s2c, monitor);
  return finish_replay(conn.meta, conn.info.truth, monitor, conn.records_c2s,
                       conn.records_s2c, conn.info.summary);
}

std::vector<ReplayResult> replay_fleet(const TraceFile& trace) {
  const std::vector<DemuxedConn> conns = demux_fleet(trace);
  std::vector<ReplayResult> out;
  out.reserve(conns.size());
  for (const DemuxedConn& conn : conns) out.push_back(replay_conn(conn));
  return out;
}

ReplayResult replay(const TraceFile& trace) {
  core::TrafficMonitor monitor;
  replay_into(trace, monitor);
  std::optional<TraceSummary> stored;
  if (trace.has_section(Section::kSummary)) stored = trace.summary();
  return finish_replay(trace.meta(), trace.ground_truth(), monitor,
                       trace.records(net::Direction::kClientToServer),
                       trace.records(net::Direction::kServerToClient), stored);
}

}  // namespace h2priv::capture
