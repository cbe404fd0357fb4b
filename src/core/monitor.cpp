#include "h2priv/core/monitor.hpp"

namespace h2priv::core {

TrafficMonitor::TrafficMonitor(net::Middlebox& middlebox) : TrafficMonitor() {
  middlebox.add_tap(
      [this](net::Direction dir, const net::Packet& p, util::TimePoint now) {
        on_packet(dir, p, now);
      });
}

TrafficMonitor::TrafficMonitor() {
  streams_[static_cast<std::size_t>(net::Direction::kClientToServer)].on_record =
      [this](const analysis::RecordObservation& rec) { on_record(rec); };
}

void TrafficMonitor::on_packet(net::Direction dir, const net::Packet& packet,
                               util::TimePoint now) {
  const tcp::SegmentView seg = tcp::peek(packet.segment);
  analysis::PacketObservation obs;
  obs.time = now;
  obs.dir = dir;
  obs.wire_size = packet.wire_size();
  obs.seq = seg.seq;
  obs.ack = seg.ack;
  obs.flags = seg.flags;
  obs.payload_len = seg.payload.size();
  observe(obs, seg.payload);
}

void TrafficMonitor::observe(const analysis::PacketObservation& obs,
                             util::BytesView payload) {
  ++packets_seen_;
  if (on_packet_observed) on_packet_observed(obs);
  tiny_records_this_packet_ = 0;
  reset_reported_this_packet_ = false;
  streams_[static_cast<std::size_t>(obs.dir)].on_packet(obs, payload, obs.time);
}

void TrafficMonitor::on_record(const analysis::RecordObservation& rec) {
  // Stream-reset flurry detection: many tiny records inside one segment.
  const std::size_t plaintext = rec.plaintext_estimate();
  if (rec.type == tls::ContentType::kApplicationData && plaintext >= 10 &&
      plaintext <= kResetRecordMaxBytes) {
    ++tiny_records_this_packet_;
    if (!reset_reported_this_packet_ &&
        tiny_records_this_packet_ >= kResetRecordsPerPacketThreshold) {
      reset_reported_this_packet_ = true;
      if (on_reset_detected) on_reset_detected(rec.time);
    }
  }

  if (!get_filter_.counts(rec)) return;
  ++get_count_;
  if (on_get_request) on_get_request(get_count_, rec.time);
}

}  // namespace h2priv::core
