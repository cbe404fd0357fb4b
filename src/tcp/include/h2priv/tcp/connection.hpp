// TCP connection: handshake, ordered byte-stream delivery, Reno congestion
// control, fast retransmit / NewReno-style hole filling, RTO with backoff,
// and connection breakage after repeated retransmission failures (the
// paper's "broken connection" outcome when the adversary pushes too hard):
// the RST sent then, or one received, is the only way a connection ends.
// There is no FIN teardown, since no model closes a connection that works.
//
// Sequence-number convention: ISS = 0, the SYN occupies seq 0, so the data
// byte at application stream offset `o` has sequence number `o + 1`. This
// keeps ground-truth annotation (stream offset -> web object) trivial.
#pragma once

#include <cstdint>
#include <functional>

#include "h2priv/obs/metrics.hpp"
#include "h2priv/sim/simulator.hpp"
#include "h2priv/tcp/congestion.hpp"
#include "h2priv/tcp/reassembly.hpp"
#include "h2priv/tcp/rto.hpp"
#include "h2priv/tcp/segment.hpp"
#include "h2priv/tcp/send_buffer.hpp"
#include "h2priv/util/buffer_pool.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

enum class State : std::uint8_t {
  kClosed,
  kListen,
  kSynSent,
  kSynRcvd,
  kEstablished,
};

enum class CloseReason : std::uint8_t {
  kReset,   ///< peer RST
  kBroken,  ///< max retransmissions exceeded (path effectively dead)
};

/// Unsent backlog cap; send() beyond it throws (callers use send_capacity()).
inline constexpr std::int64_t kSendBufferLimit = 512 * 1024;
/// on_writable fires when unsent backlog drops below this.
inline constexpr std::int64_t kWritableWatermark = 8 * 1024;

struct TcpConfig {
  std::uint16_t local_port = 0;
  std::uint16_t remote_port = 0;
  int max_retries = 10;
  RtoConfig rto{};
};

struct TcpStats {
  std::uint64_t retransmits_fast = 0;     ///< triggered by 3 dup ACKs
  std::uint64_t retransmits_timeout = 0;  ///< triggered by RTO
  std::uint64_t retransmits_hole = 0;     ///< NewReno partial-ack retransmits

  [[nodiscard]] std::uint64_t total_retransmits() const noexcept {
    return retransmits_fast + retransmits_timeout + retransmits_hole;
  }
};

class Connection {
 public:
  /// Receives an encoded segment ready for the wire. The buffer is pooled
  /// and ref-counted; holders may keep it past the callback at no cost.
  using SegmentOut = std::function<void(util::SharedBytes)>;

  /// The segment sink is wired afterwards with set_segment_out() (the link
  /// it feeds usually delivers to the peer, which must exist first); it must
  /// be set before connect()/listen().
  Connection(sim::Simulator& sim, TcpConfig config);
  ~Connection();

  void set_segment_out(SegmentOut out) { out_ = std::move(out); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Active open (client side): sends SYN.
  void connect();
  /// Passive open (server side): waits for SYN.
  void listen();

  /// Delivers a received wire-format segment into the connection.
  void on_wire(util::BytesView wire);

  /// Enqueues application bytes; returns the stream offset of the first byte.
  /// Throws std::length_error if it would exceed kSendBufferLimit.
  std::uint64_t send(util::BytesView data);

  /// Bytes that can still be enqueued without exceeding the backlog cap.
  [[nodiscard]] std::int64_t send_capacity() const noexcept;

  // --- observability -------------------------------------------------------
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool established() const noexcept { return state_ ==
                                 State::kEstablished; }
  [[nodiscard]] const TcpStats& stats() const noexcept { return stats_; }
  /// Total application bytes ever enqueued (== next send()'s stream offset).
  [[nodiscard]] std::uint64_t bytes_enqueued() const noexcept { return send_buf_.end(); }
  [[nodiscard]] const RenoCongestion& congestion() const noexcept { return cc_; }
  [[nodiscard]] const RtoEstimator& rto_estimator() const noexcept { return rto_; }

  // --- callbacks ------------------------------------------------------------
  std::function<void(util::BytesView)> on_data;
  std::function<void()> on_established;
  std::function<void(CloseReason)> on_closed;
  /// Unsent backlog dropped below kWritableWatermark.
  std::function<void()> on_writable;

 private:
  // seq <-> application stream offset (data starts at seq 1).
  [[nodiscard]] std::uint64_t offset_of(std::uint64_t seq) const noexcept {
    return seq - 1;
  }
  [[nodiscard]] std::uint64_t seq_of(std::uint64_t offset) const noexcept {
    return offset + 1;
  }

  void emit(SegmentView s);
  void send_ack();
  void pump();
  void retransmit_head();
  void arm_retx_timer();
  void cancel_retx_timer();
  void on_retx_timeout();
  void handle_ack(const SegmentView& s);
  void handle_data(const SegmentView& s);
  void enter_established();
  void finish(CloseReason reason);
  [[nodiscard]] std::uint32_t advertised_window() const noexcept;
  [[nodiscard]] std::uint64_t effective_window() const noexcept;
  void maybe_fire_writable();

  sim::Simulator& sim_;
  TcpConfig config_;
  SegmentOut out_;
  State state_ = State::kClosed;
  TcpStats stats_;
  /// Thread-current metrics registry, captured at construction (connections
  /// live on one Monte-Carlo worker; see obs/metrics.hpp).
  obs::Registry* obs_ = &obs::current();

  // Send side.
  SendBuffer send_buf_;
  RenoCongestion cc_;
  RtoEstimator rto_;
  std::uint64_t snd_una_ = 0;  // oldest unacked seq
  std::uint64_t snd_nxt_ = 0;  // next seq to send
  std::uint64_t rwnd_peer_ = 65535;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recover_ = 0;           // highest seq sent when loss detected
  std::uint64_t recovery_inflation_ = 0;  // dup-ACK window inflation (bytes)
  int retries_ = 0;
  sim::EventId retx_timer_{};
  bool was_unwritable_ = false;
  util::TimePoint last_send_activity_{};

  // RTT timing (Karn's rule: one timed segment, invalidated on retransmit).
  bool timing_active_ = false;
  std::uint64_t timed_end_seq_ = 0;
  util::TimePoint timed_at_{};

  // Receive side.
  Reassembly reassembly_{1};  // first data byte from peer is seq 1
  bool peer_syn_seen_ = false;
};

}  // namespace h2priv::tcp
