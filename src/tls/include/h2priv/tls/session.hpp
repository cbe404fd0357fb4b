// TLS session: drives a simulated handshake over a tcp::Connection, then
// carries opaque application records in both directions.
//
// The handshake exchanges fixed-size flights of ContentType::kHandshake so
// that an on-path monitor sees a realistic preamble to skip (as tshark does
// before `ssl.record.content_type==23` traffic starts).
#pragma once

#include <cstdint>
#include <functional>

#include "h2priv/tcp/connection.hpp"
#include "h2priv/tls/record.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tls {

enum class Role : std::uint8_t { kClient, kServer };

/// Handshake flight sizes (bytes of handshake plaintext, patterned content).
inline constexpr std::size_t kClientHelloLen = 512;
inline constexpr std::size_t kServerFlightLen = 3600;  // SH + cert + done
inline constexpr std::size_t kClientFinishedLen = 130;
inline constexpr std::size_t kServerFinishedLen = 80;

/// Byte range the sealed write occupies in the underlying TCP stream
/// (half-open). This is the hook ground-truth annotation hangs off of.
struct WireRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

class Session {
 public:
  /// Takes over the connection's on_data/on_established/on_writable/on_closed
  /// hooks; interact with those events through the Session from now on.
  Session(Role role, std::uint64_t session_secret, tcp::Connection& transport);

  /// Seals and enqueues application bytes. Returns the TCP stream range the
  /// sealed records occupy. Throws std::logic_error before the handshake
  /// completes.
  WireRange send_app(util::BytesView plaintext);

  /// TCP send-buffer room left for *plaintext*, conservatively accounting
  /// for record overhead.
  [[nodiscard]] std::int64_t app_send_capacity() const noexcept;

  /// Defense: quantize outgoing application-data records to `bucket`
  /// plaintext bytes before sealing (0 = off). The peer session must have
  /// set_recv_record_unpad(true). Configure before application traffic;
  /// handshake flights are never padded either way.
  void set_send_record_bucket(std::size_t bucket) noexcept {
    seal_.set_pad_bucket(bucket);
  }
  /// Defense: expect quantized application records from the peer and strip
  /// their authenticated filler before delivery.
  void set_recv_record_unpad(bool unpad) noexcept { open_.set_unpad(unpad); }

  [[nodiscard]] bool established() const noexcept { return established_; }
  [[nodiscard]] std::uint64_t app_bytes_sent() const noexcept { return app_bytes_sent_; }
  [[nodiscard]] std::uint64_t app_bytes_received() const noexcept {
    return app_bytes_received_;
  }
  [[nodiscard]] tcp::Connection& transport() noexcept { return tcp_; }

  std::function<void()> on_established;                ///< handshake done
  std::function<void(util::BytesView)> on_app_data;    ///< opened app bytes
  std::function<void()> on_writable;                   ///< passthrough from TCP
  std::function<void(tcp::CloseReason)> on_closed;     ///< passthrough from TCP

 private:
  enum class HandshakeState : std::uint8_t {
    kWaitTransport,
    kClientAwaitServerFlight,   // client sent CH
    kServerAwaitClientHello,
    kServerAwaitClientFinished, // server sent flight
    kClientAwaitServerFinished, // client sent finished
    kEstablished,
  };

  void on_transport_established();
  void on_transport_data(util::BytesView bytes);
  void send_handshake_flight(std::size_t len);
  void handle_handshake_bytes(util::BytesView bytes);
  void become_established();

  Role role_;
  tcp::Connection& tcp_;
  SealContext seal_;
  OpenContext open_;
  HandshakeState hs_state_ = HandshakeState::kWaitTransport;
  std::size_t hs_bytes_pending_ = 0;  // handshake bytes still expected
  util::Bytes rx_buf_;                // bytes of records not yet opened
  bool established_ = false;
  std::uint64_t app_bytes_sent_ = 0;
  std::uint64_t app_bytes_received_ = 0;
};

}  // namespace h2priv::tls
