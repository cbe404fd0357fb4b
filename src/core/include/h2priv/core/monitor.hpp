// TrafficMonitor — the adversary's tshark (Section V component (a)).
//
// Taps the compromised middlebox, reads cleartext TCP headers, reassembles
// both directions, extracts TLS record boundaries, and counts client GET
// requests using the paper's `ssl.record.content_type == 23` filter plus a
// size heuristic that separates request header blocks from control chatter
// (window updates, settings acks, stream resets are all much smaller).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "h2priv/analysis/monitor_stream.hpp"
#include "h2priv/analysis/observation.hpp"
#include "h2priv/net/middlebox.hpp"
#include "h2priv/tcp/segment.hpp"

namespace h2priv::core {

/// Minimum record plaintext for a client->server record to count as a GET.
inline constexpr std::size_t kMinGetRecordBytes = 25;
/// Maximum — request header blocks are small; bulkier uploads are not GETs.
inline constexpr std::size_t kMaxGetRecordBytes = 512;
/// Qualifying records to skip at session start (the client's SETTINGS
/// flight rides in application-data records of GET-like size).
inline constexpr int kSetupRecordsToSkip = 1;

/// Stream-reset detection: a reset episode cancels dozens of streams
/// back-to-back, so their tiny RST_STREAM records (13 bytes of plaintext
/// each) coalesce into a single TCP segment. Tiny records that arrive one
/// per packet (e.g. HPACK-compressed re-GETs) never trip this.
inline constexpr std::size_t kResetRecordMaxBytes = 20;
inline constexpr int kResetRecordsPerPacketThreshold = 8;

/// The paper's GET filter over one direction's client->server records, in
/// stream order: application data (`ssl.record.content_type == 23`) with a
/// plaintext estimate in [kMinGetRecordBytes, kMaxGetRecordBytes], minus the
/// first kSetupRecordsToSkip such records. The live monitor and offline
/// scoring (capture::count_gets) both count through it.
class GetFilter {
 public:
  /// True when `rec` is a GET. Call once per record, in stream order.
  [[nodiscard]] bool counts(const analysis::RecordObservation& rec) noexcept {
    if (rec.type != tls::ContentType::kApplicationData) return false;
    const std::size_t plaintext = rec.plaintext_estimate();
    if (plaintext < kMinGetRecordBytes || plaintext > kMaxGetRecordBytes) return false;
    if (setup_skipped_ < kSetupRecordsToSkip) {
      ++setup_skipped_;
      return false;
    }
    return true;
  }

 private:
  int setup_skipped_ = 0;
};

class TrafficMonitor {
 public:
  explicit TrafficMonitor(net::Middlebox& middlebox);

  /// Standalone monitor with no live tap: observations are pushed through
  /// observe() — the offline-replay path (capture::replay_into feeds a
  /// stored .h2t trace through exactly the live analysis code).
  TrafficMonitor();

  /// Feeds one packet observation plus the visible TCP payload bytes (what
  /// tcp::peek exposes). The live middlebox tap and the offline replayer
  /// both funnel through here, so their analysis state is identical.
  void observe(const analysis::PacketObservation& obs, util::BytesView payload);

  /// Fires on each detected GET with its 1-based index.
  std::function<void(int index, util::TimePoint when)> on_get_request;

  /// Fires when a client stream-reset flurry is detected (Section IV-D: the
  /// cue that the drop phase has done its job).
  std::function<void(util::TimePoint when)> on_reset_detected;

  /// Fires on every packet observation, before stream analysis — the
  /// monitor's one packet export. It stores no packets itself: run_once
  /// appends them to RunObservations::packets when the caller asks for
  /// them, and offline replay keeps none, so its memory stays bounded.
  std::function<void(const analysis::PacketObservation& obs)> on_packet_observed;

  [[nodiscard]] int get_count() const noexcept { return get_count_; }
  [[nodiscard]] const std::vector<analysis::RecordObservation>& records(
      net::Direction dir) const noexcept {
    return streams_[static_cast<std::size_t>(dir)].records();
  }
  [[nodiscard]] std::uint64_t packets_seen() const noexcept { return packets_seen_; }

 private:
  void on_packet(net::Direction dir, const net::Packet& packet, util::TimePoint now);
  void on_record(const analysis::RecordObservation& rec);

  analysis::MonitorStream streams_[2] = {
      analysis::MonitorStream(net::Direction::kClientToServer),
      analysis::MonitorStream(net::Direction::kServerToClient)};
  std::uint64_t packets_seen_ = 0;
  int tiny_records_this_packet_ = 0;
  bool reset_reported_this_packet_ = false;
  GetFilter get_filter_;
  int get_count_ = 0;
};

}  // namespace h2priv::core
