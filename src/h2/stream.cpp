#include "h2priv/h2/stream.hpp"

#include <stdexcept>

namespace h2priv::h2 {

const char* to_string(StreamState s) noexcept {
  switch (s) {
    case StreamState::kIdle: return "idle";
    case StreamState::kReservedLocal: return "reserved(local)";
    case StreamState::kReservedRemote: return "reserved(remote)";
    case StreamState::kOpen: return "open";
    case StreamState::kHalfClosedLocal: return "half-closed(local)";
    case StreamState::kHalfClosedRemote: return "half-closed(remote)";
    case StreamState::kClosed: return "closed";
  }
  return "?";
}

void Stream::open_local(bool end_stream) {
  switch (state) {
    case StreamState::kIdle:
      state = end_stream ? StreamState::kHalfClosedLocal : StreamState::kOpen;
      break;
    case StreamState::kReservedLocal:
      state = end_stream ? StreamState::kClosed : StreamState::kHalfClosedRemote;
      break;
    default:
      throw std::logic_error("HEADERS sent in state " + std::string(to_string(state)));
  }
}

void Stream::open_remote(bool end_stream) {
  switch (state) {
    case StreamState::kIdle:
      state = end_stream ? StreamState::kHalfClosedRemote : StreamState::kOpen;
      break;
    case StreamState::kReservedRemote:
      state = end_stream ? StreamState::kClosed : StreamState::kHalfClosedLocal;
      break;
    default:
      throw std::logic_error("HEADERS received in state " +
                             std::string(to_string(state)));
  }
}

void Stream::end_local() {
  if (state == StreamState::kOpen) {
    state = StreamState::kHalfClosedLocal;
  } else if (state == StreamState::kHalfClosedRemote) {
    state = StreamState::kClosed;
  } else {
    throw std::logic_error("END_STREAM sent in state " + std::string(to_string(state)));
  }
}

void Stream::end_remote() {
  if (state == StreamState::kOpen) {
    state = StreamState::kHalfClosedRemote;
  } else if (state == StreamState::kHalfClosedLocal) {
    state = StreamState::kClosed;
  } else {
    throw std::logic_error("END_STREAM received in state " +
                           std::string(to_string(state)));
  }
}

}  // namespace h2priv::h2
