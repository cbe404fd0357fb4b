#include "h2priv/h2/connection.hpp"

#include <algorithm>
#include <stdexcept>

#include "h2priv/obs/metrics.hpp"
#include "h2priv/util/narrow.hpp"

namespace h2priv::h2 {

void Settings::apply(const std::vector<Setting>& settings) {
  for (const Setting& s : settings) {
    switch (static_cast<SettingId>(s.id)) {
      case SettingId::kHeaderTableSize:
        header_table_size = s.value;
        break;
      case SettingId::kEnablePush:
        if (s.value > 1) throw FrameError("ENABLE_PUSH must be 0 or 1");
        enable_push = s.value == 1;
        break;
      case SettingId::kMaxConcurrentStreams:
        max_concurrent_streams = s.value;
        break;
      case SettingId::kInitialWindowSize:
        if (s.value > static_cast<std::uint32_t>(kMaxStreamId)) {
          throw FrameError("INITIAL_WINDOW_SIZE above 2^31-1");
        }
        initial_window_size = s.value;
        break;
      case SettingId::kMaxFrameSize:
        if (s.value < 16'384 || s.value > 16'777'215) {
          throw FrameError("MAX_FRAME_SIZE out of range");
        }
        max_frame_size = s.value;
        break;
      case SettingId::kMaxHeaderListSize:
        max_header_list_size = s.value;
        break;
      default:
        break;  // unknown settings are ignored (RFC 7540 §6.5.2)
    }
  }
}

Connection::Connection(Role role, ConnectionConfig config, ByteSink out)
    : role_(role),
      config_(config),
      out_(std::move(out)),
      hpack_encoder_(config.local_settings.header_table_size),
      hpack_decoder_(config.local_settings.header_table_size),
      next_stream_id_(role == Role::kClient ? 1 : 2),
      preface_remaining_(role == Role::kServer ? kConnectionPreface.size() : 0) {
  if (!out_) throw std::invalid_argument("h2::Connection: null byte sink");
}

void Connection::start() {
  if (started_) throw std::logic_error("h2::Connection::start called twice");
  started_ = true;
  if (role_ == Role::kClient) {
    out_(util::BytesView(reinterpret_cast<const std::uint8_t*>(kConnectionPreface.data()),
                         kConnectionPreface.size()));
  }
  SettingsFrame sf;
  sf.settings = config_.local_settings.to_wire();
  write_frame(sf);
  if (config_.connection_window_extra > 0) {
    conn_recv_window_ += config_.connection_window_extra;
    write_frame(WindowUpdateFrame{0, config_.connection_window_extra});
  }
}

WireSpan Connection::write_data(std::uint32_t stream_id, util::BytesView payload,
                                bool end_stream, std::uint8_t pad_length) {
  frame_scratch_.clear();
  encode_data_into(frame_scratch_, stream_id, payload, end_stream, pad_length);
  const WireSpan span = out_(frame_scratch_.view());
  obs::count(obs::Counter::kH2DataSent);
  obs::count(obs::Counter::kH2DataBytesSent, payload.size());
  if (pad_length > 0) obs::count(obs::Counter::kH2PadBytesSent, pad_length);
  if (on_frame_sent) on_frame_sent(stream_id, FrameType::kData, span);
  return span;
}

WireSpan Connection::write_frame(const Frame& f) {
  frame_scratch_.clear();
  encode_frame_into(frame_scratch_, f);
  const WireSpan span = out_(frame_scratch_.view());
  obs::count(obs::h2_frame_sent_counter(static_cast<unsigned>(frame_type(f))));
  if (on_frame_sent) on_frame_sent(frame_stream_id(f), frame_type(f), span);
  return span;
}

const Stream& Connection::stream(std::uint32_t id) const {
  const auto it = streams_.find(id);
  if (it == streams_.end()) throw std::out_of_range("h2: unknown stream " +
      std::to_string(id));
  return it->second;
}

Stream& Connection::require_stream(std::uint32_t id) {
  const auto it = streams_.find(id);
  if (it == streams_.end()) throw std::out_of_range("h2: unknown stream " +
      std::to_string(id));
  return it->second;
}

std::uint32_t Connection::send_request(const hpack::HeaderList& headers) {
  if (role_ != Role::kClient) throw std::logic_error("send_request on server connection");
  const std::uint32_t id = next_stream_id_;
  next_stream_id_ += 2;

  Stream s;
  s.id = id;
  s.send_window = peer_settings_.initial_window_size;
  s.recv_window = config_.local_settings.initial_window_size;
  s.open_local(/*end_stream=*/true);  // GETs carry no body
  streams_.emplace(id, std::move(s));

  send_header_block(id, hpack_encoder_.encode(headers), /*end_stream=*/true);
  return id;
}

void Connection::send_response_headers(std::uint32_t stream_id,
                                       const hpack::HeaderList& headers,
                                       bool end_stream) {
  Stream& s = require_stream(stream_id);
  if (!s.can_send_data() && s.state != StreamState::kReservedLocal) {
    throw std::logic_error("send_response_headers in state " +
                           std::string(to_string(s.state)));
  }
  if (s.state == StreamState::kReservedLocal) {
    s.open_local(end_stream);
  } else if (end_stream) {
    s.end_local();
  }
  send_header_block(stream_id, hpack_encoder_.encode(headers), end_stream);
}

void Connection::send_header_block(std::uint32_t stream_id, util::Bytes block,
                                   bool end_stream) {
  // Header blocks larger than the peer's max frame size continue in
  // CONTINUATION frames (RFC 7540 SS4.3).
  const std::size_t max_fragment = peer_settings_.max_frame_size;
  const bool fits = block.size() <= max_fragment;

  HeadersFrame hf;
  hf.stream_id = stream_id;
  hf.end_stream = end_stream;
  hf.end_headers = fits;
  if (fits) {
    hf.header_block = std::move(block);
    write_frame(hf);
    return;
  }
  hf.header_block.assign(block.begin(),
                         block.begin() + static_cast<std::ptrdiff_t>(max_fragment));
  write_frame(hf);
  std::size_t pos = max_fragment;
  while (pos < block.size()) {
    const std::size_t n = std::min<std::size_t>(block.size() - pos,
                                                peer_settings_.max_frame_size);
    ContinuationFrame cf;
    cf.stream_id = stream_id;
    cf.header_block.assign(block.begin() + static_cast<std::ptrdiff_t>(pos),
                           block.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    cf.end_headers = pos == block.size();
    write_frame(cf);
  }
}

std::size_t Connection::send_data(std::uint32_t stream_id, util::BytesView data,
                                  bool end_stream) {
  Stream& s = require_stream(stream_id);
  if (s.state == StreamState::kClosed) return data.size();  // raced with RST: drop
  if (!s.can_send_data()) {
    throw std::logic_error("send_data in state " + std::string(to_string(s.state)));
  }
  // With a pad provider installed, keep room for the pad-length byte plus a
  // maximal pad inside the frame-size limit (max_frame_size >= 16384 >> 256).
  const bool padded = static_cast<bool>(data_pad_provider);
  const std::int64_t frame_cap =
      static_cast<std::int64_t>(peer_settings_.max_frame_size) - (padded ? 256 : 0);
  std::size_t written = 0;
  while (true) {
    const std::size_t left = data.size() - written;
    const std::int64_t window = std::min(s.send_window, conn_send_window_);
    const std::int64_t n = std::max<std::int64_t>(
        0, std::min<std::int64_t>({static_cast<std::int64_t>(left), frame_cap, window}));
    const bool last = static_cast<std::size_t>(n) == left;
    // A closed window stops the body; an empty END_STREAM frame needs none.
    if (n == 0 && !(last && end_stream)) break;
    // Pad bytes share the flow-control window with body bytes (the receive
    // side credits data + pad symmetrically), so clamp the pad to whatever
    // headroom the window leaves beyond the body.
    std::uint8_t pad = 0;
    if (padded) {
      pad = static_cast<std::uint8_t>(std::min<std::int64_t>(
          data_pad_provider(static_cast<std::size_t>(n)),
          std::max<std::int64_t>(0, window - n)));
    }
    s.send_window -= n + pad;
    conn_send_window_ -= n + pad;
    if (last && end_stream) s.end_local();
    // Encode straight from the caller's view: no DataFrame, no body copy.
    write_data(s.id, data.subspan(written, static_cast<std::size_t>(n)),
               last && end_stream, pad);
    written += static_cast<std::size_t>(n);
    if (last) break;
  }
  return written;
}

std::uint32_t Connection::push_promise(std::uint32_t parent_stream_id,
                                       const hpack::HeaderList& request_headers) {
  if (role_ != Role::kServer) throw std::logic_error("push_promise on client connection");
  if (!peer_settings_.enable_push) throw std::logic_error("peer disabled server push");
  Stream& parent = require_stream(parent_stream_id);
  if (parent.state ==
      StreamState::kClosed) throw std::logic_error("push on closed stream");

  const std::uint32_t promised = next_promised_id_;
  next_promised_id_ += 2;
  Stream s;
  s.id = promised;
  s.state = StreamState::kReservedLocal;
  s.send_window = peer_settings_.initial_window_size;
  s.recv_window = config_.local_settings.initial_window_size;
  streams_.emplace(promised, std::move(s));

  PushPromiseFrame pp;
  pp.stream_id = parent_stream_id;
  pp.promised_stream_id = promised;
  pp.header_block = hpack_encoder_.encode(request_headers);
  write_frame(pp);
  return promised;
}

void Connection::rst_stream(std::uint32_t stream_id, ErrorCode error) {
  Stream& s = require_stream(stream_id);
  if (s.state == StreamState::kClosed) return;
  s.reset();
  RstStreamFrame rf;
  rf.stream_id = stream_id;
  rf.error = error;
  write_frame(rf);
}

void Connection::on_bytes(util::BytesView bytes) {
  if (preface_remaining_ > 0) {
    const std::size_t n = std::min(preface_remaining_, bytes.size());
    // Content check is cheap and catches cross-wired transports early.
    const std::size_t start = kConnectionPreface.size() - preface_remaining_;
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != static_cast<std::uint8_t>(kConnectionPreface[start + i])) {
        throw FrameError("bad connection preface");
      }
    }
    preface_remaining_ -= n;
    bytes = bytes.subspan(n);
    if (bytes.empty()) return;
  }
  decoder_.feed(bytes);
  while (auto frame = decoder_.next()) {
    obs::count(obs::Counter::kH2FramesReceived);
    handle_frame(std::move(*frame));
  }
}

Stream& Connection::ensure_remote_stream(std::uint32_t id) {
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    Stream s;
    s.id = id;
    s.send_window = peer_settings_.initial_window_size;
    s.recv_window = config_.local_settings.initial_window_size;
    it = streams_.emplace(id, std::move(s)).first;
  }
  return it->second;
}

void Connection::grant_receive_credit(Stream* s, std::size_t consumed) {
  // The application consumes bytes immediately in this model, so credit is
  // returned once the consumed share passes half the respective window.
  conn_recv_consumed_ += static_cast<std::int64_t>(consumed);
  if (conn_recv_consumed_ > conn_recv_window_ / 2) {
    write_frame(WindowUpdateFrame{0, util::narrow<std::uint32_t>(conn_recv_consumed_)});
    conn_recv_consumed_ = 0;
  }
  if (s != nullptr && s->state != StreamState::kClosed) {
    s->recv_consumed += static_cast<std::int64_t>(consumed);
    if (s->recv_consumed > s->recv_window / 2) {
      write_frame(
          WindowUpdateFrame{s->id, util::narrow<std::uint32_t>(s->recv_consumed)});
      s->recv_consumed = 0;
    }
  }
}

void Connection::dispatch_headers(std::uint32_t stream_id, util::Bytes block,
                                  bool end_stream) {
  Stream& s = ensure_remote_stream(stream_id);
  const hpack::HeaderList headers = hpack_decoder_.decode(block);
  if (role_ == Role::kServer) {
    s.open_remote(end_stream);
    if (on_request) on_request(stream_id, headers, end_stream);
  } else {
    // Response headers on an existing (client-opened or pushed) stream.
    if (s.state == StreamState::kReservedRemote) s.open_remote(end_stream);
    else if (end_stream) s.end_remote();
    if (on_response_headers) on_response_headers(stream_id, headers);
    if (end_stream && on_data) on_data(stream_id, util::BytesView{}, true);
  }
}

void Connection::handle_frame(Frame&& f) {
  std::visit(
      [this](auto&& frame) {
        using T = std::decay_t<decltype(frame)>;

        if constexpr (std::is_same_v<T, SettingsFrame>) {
          if (frame.ack) return;
          const std::uint32_t old_initial = peer_settings_.initial_window_size;
          peer_settings_.apply(frame.settings);
          peer_settings_received_ = true;
          decoder_.set_max_frame_size(config_.local_settings.max_frame_size);
          hpack_encoder_.resize_table(
              std::min<std::size_t>(peer_settings_.header_table_size,
                                    config_.local_settings.header_table_size));
          // Adjust live stream windows by the delta (RFC 7540 §6.9.2).
          const std::int64_t delta = static_cast<std::int64_t>(
                                         peer_settings_.initial_window_size) -
                                     old_initial;
          if (delta != 0) {
            for (auto& [id, s] : streams_) s.send_window += delta;
          }
          write_frame(SettingsFrame{.ack = true, .settings = {}});
          if (delta > 0 && on_window_update) on_window_update(0);

        } else if constexpr (std::is_same_v<T, HeadersFrame>) {
          if (continuation_stream_ != 0) {
            throw FrameError("HEADERS while a header block is still open");
          }
          if (!frame.end_headers) {
            continuation_stream_ = frame.stream_id;
            continuation_block_ = std::move(frame.header_block);
            continuation_end_stream_ = frame.end_stream;
            return;
          }
          dispatch_headers(frame.stream_id, std::move(frame.header_block),
                           frame.end_stream);

        } else if constexpr (std::is_same_v<T, DataFrame>) {
          Stream* s = nullptr;
          if (const auto it = streams_.find(frame.stream_id); it != streams_.end()) {
            s = &it->second;
          }
          if (s == nullptr || s->state == StreamState::kClosed) {
            // Data racing a reset stream: account connection window, drop.
            grant_receive_credit(nullptr, frame.data.size() + frame.pad_length);
            return;
          }
          if (!s->can_receive_data()) {
            throw FrameError("DATA in state " + std::string(to_string(s->state)));
          }
          if (frame.end_stream) s->end_remote();
          grant_receive_credit(s, frame.data.size() + frame.pad_length);
          if (on_data) on_data(frame.stream_id, frame.data, frame.end_stream);

        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          if (frame.stream_id == 0) {
            conn_send_window_ += frame.increment;
          } else if (const auto it = streams_.find(frame.stream_id); it !=
                                                   streams_.end()) {
            it->second.send_window += frame.increment;
          } else {
            return;  // a stream we never opened has no window to grow
          }
          if (on_window_update) on_window_update(frame.stream_id);

        } else if constexpr (std::is_same_v<T, RstStreamFrame>) {
          obs::count(obs::Counter::kH2RstStreamsReceived);
          if (const auto it = streams_.find(frame.stream_id); it != streams_.end()) {
            it->second.reset();
          }
          if (on_rst_stream) on_rst_stream(frame.stream_id, frame.error);

        } else if constexpr (std::is_same_v<T, PingFrame>) {
          if (!frame.ack) {
            PingFrame pong = frame;
            pong.ack = true;
            write_frame(pong);
          }

        } else if constexpr (std::is_same_v<T, GoAwayFrame>) {
          // Decoded, then ignored: the model never drains a connection.

        } else if constexpr (std::is_same_v<T, PushPromiseFrame>) {
          if (role_ != Role::kClient) throw FrameError("PUSH_PROMISE sent to server");
          if (!config_.local_settings.enable_push) throw FrameError("push disabled");
          Stream s;
          s.id = frame.promised_stream_id;
          s.state = StreamState::kReservedRemote;
          s.send_window = peer_settings_.initial_window_size;
          s.recv_window = config_.local_settings.initial_window_size;
          streams_.emplace(frame.promised_stream_id, std::move(s));
          const hpack::HeaderList headers = hpack_decoder_.decode(frame.header_block);
          if (on_push_promise) on_push_promise(frame.stream_id, frame.promised_stream_id,
              headers);

        } else if constexpr (std::is_same_v<T, PriorityFrame>) {
          // Advisory (RFC 7540 §5.3): decoded and validated, then ignored.
        } else if constexpr (std::is_same_v<T, ContinuationFrame>) {
          if (continuation_stream_ == 0 || frame.stream_id != continuation_stream_) {
            throw FrameError("CONTINUATION without an open header block");
          }
          continuation_block_.insert(continuation_block_.end(),
                                     frame.header_block.begin(),
                                     frame.header_block.end());
          if (frame.end_headers) {
            const std::uint32_t stream_id = continuation_stream_;
            continuation_stream_ = 0;
            dispatch_headers(stream_id, std::move(continuation_block_),
                             continuation_end_stream_);
          }
        } else {
          static_assert(std::is_same_v<T, PriorityFrame> || !sizeof(T*),
                        "unhandled frame type");
        }
      },
      std::move(f));
}

}  // namespace h2priv::h2
