// Adversary-side TCP stream reconstruction and TLS record boundary
// extraction for one direction of one connection.
//
// The monitor reads cleartext TCP headers off transiting packets, reassembles
// the byte stream (absorbing retransmissions exactly as tshark's TCP
// dissector does), and scans the 5-byte TLS record headers to produce
// RecordObservations. Payload bytes stay opaque and are never copied by the
// scanner: it reads the in-order bytes where reassembly delivers them, keeps
// at most the 5 header bytes of the current record, and counts that
// record's body bytes down to zero.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "h2priv/analysis/observation.hpp"
#include "h2priv/tcp/reassembly.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::analysis {

class MonitorStream {
 public:
  explicit MonitorStream(net::Direction dir) noexcept : dir_(dir) {}

  /// Feeds one observed packet (already peeked). Emits RecordObservations
  /// for every record whose last body byte this packet delivered. Throws
  /// tls::TlsError on an invalid record header.
  void on_packet(const PacketObservation& pkt, util::BytesView payload,
                 util::TimePoint now);

  /// Fires for each completed record, in stream order.
  std::function<void(const RecordObservation&)> on_record;

  [[nodiscard]] const std::vector<RecordObservation>& records() const noexcept {
    return records_;
  }

 private:
  void scan(util::BytesView bytes, util::TimePoint now);

  net::Direction dir_;
  tcp::Reassembly reassembly_{1};  // data starts at seq 1 (SYN occupies 0)
  std::array<std::uint8_t, tls::kHeaderBytes> header_{};  // current record's header
  std::size_t header_len_ = 0;       // header bytes seen so far
  bool in_body_ = false;             // header parsed into current_
  tls::RecordHeader current_{};
  std::size_t body_left_ = 0;        // current record's body bytes still to come
  std::uint64_t record_offset_ = 0;  // stream offset of the current record
  std::vector<RecordObservation> records_;
};

}  // namespace h2priv::analysis
