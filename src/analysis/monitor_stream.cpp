#include "h2priv/analysis/monitor_stream.hpp"

#include <algorithm>

namespace h2priv::analysis {

void MonitorStream::on_packet(const PacketObservation& pkt, util::BytesView payload,
                              util::TimePoint now) {
  if (payload.empty()) return;
  // In-order segments are scanned in place; only out-of-order ones are
  // copied, once, into the reassembly window.
  const util::BytesView delivered = reassembly_.offer(pkt.seq, payload);
  if (delivered.empty()) return;
  scan(delivered, now);
}

void MonitorStream::scan(util::BytesView bytes, util::TimePoint now) {
  std::size_t pos = 0;
  for (;;) {
    if (!in_body_) {
      const std::size_t take =
          std::min(tls::kHeaderBytes - header_len_, bytes.size() - pos);
      std::copy_n(bytes.data() + pos, take, header_.data() + header_len_);
      header_len_ += take;
      pos += take;
      if (!tls::parse_header(util::BytesView(header_.data(), header_len_), current_)) {
        return;
      }
      in_body_ = true;
      body_left_ = current_.ciphertext_len;
    }
    const std::size_t take = std::min(body_left_, bytes.size() - pos);
    body_left_ -= take;
    pos += take;
    if (body_left_ > 0) return;

    RecordObservation rec;
    rec.time = now;
    rec.dir = dir_;
    rec.type = current_.type;
    rec.ciphertext_len = current_.ciphertext_len;
    rec.stream_offset = record_offset_;
    records_.push_back(rec);
    if (on_record) on_record(rec);
    record_offset_ += tls::kHeaderBytes + current_.ciphertext_len;
    in_body_ = false;
    header_len_ = 0;
  }
}

}  // namespace h2priv::analysis
