// Per-stream state (RFC 7540 §5.1) plus flow-control windows. A stream
// holds no body bytes: Connection::send_data writes what the windows allow
// and the caller keeps the rest, so a peer that never opens its window
// leaves nothing queued here.
#pragma once

#include <cstdint>

namespace h2priv::h2 {

enum class StreamState : std::uint8_t {
  kIdle,
  kReservedLocal,
  kReservedRemote,
  kOpen,
  kHalfClosedLocal,
  kHalfClosedRemote,
  kClosed,
};

[[nodiscard]] const char* to_string(StreamState s) noexcept;

struct Stream {
  std::uint32_t id = 0;
  StreamState state = StreamState::kIdle;

  // Flow control (send = credit for our DATA; recv = credit we granted).
  std::int64_t send_window = 65'535;
  std::int64_t recv_window = 65'535;
  std::int64_t recv_consumed = 0;  // bytes to return via WINDOW_UPDATE

  [[nodiscard]] bool can_send_data() const noexcept {
    return state == StreamState::kOpen || state == StreamState::kHalfClosedRemote;
  }
  [[nodiscard]] bool can_receive_data() const noexcept {
    return state == StreamState::kOpen || state == StreamState::kHalfClosedLocal;
  }

  // State transitions; throw std::logic_error on illegal ones.
  void open_local(bool end_stream);   // we sent HEADERS
  void open_remote(bool end_stream);  // peer sent HEADERS
  void end_local();                   // we sent END_STREAM
  void end_remote();                  // peer sent END_STREAM
  void reset() noexcept { state = StreamState::kClosed; }
};

}  // namespace h2priv::h2
