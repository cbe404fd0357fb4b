// HTTP/2 connection (RFC 7540): preface, SETTINGS exchange, HPACK-coded
// HEADERS, DATA with connection- and stream-level flow control, RST_STREAM,
// PING answers, WINDOW_UPDATE and server push. PRIORITY signals and GOAWAY
// are decoded and validated, then ignored.
//
// The connection is transport-agnostic: it emits wire bytes through a
// ByteSink and is fed received bytes via on_bytes(). The sink returns the
// byte range the write occupies in the underlying TCP stream, which the
// server uses for ground-truth annotation of which object each DATA frame
// carried (the simulator-side oracle the adversary never sees).
//
// The connection is a codec plus flow-control accounting: it holds no body
// bytes. send_data writes what the stream and connection windows allow and
// returns that count; the caller keeps the rest and offers it again when
// on_window_update reports a window that grew.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>

#include "h2priv/h2/frame.hpp"
#include "h2priv/h2/settings.hpp"
#include "h2priv/h2/stream.hpp"
#include "h2priv/hpack/codec.hpp"

namespace h2priv::h2 {

enum class Role : std::uint8_t { kClient, kServer };

/// Byte range a write occupies in the transport's stream (half-open).
struct WireSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return end == begin; }
};

struct ConnectionConfig {
  Settings local_settings{};
  /// Extra connection-level receive window granted immediately after the
  /// preface (browsers grant several MB; 0 keeps the RFC default 64 KiB).
  std::uint32_t connection_window_extra = 0;
};

class Connection {
 public:
  using ByteSink = std::function<WireSpan(util::BytesView)>;

  Connection(Role role, ConnectionConfig config, ByteSink out);

  /// Sends the preface (client), our SETTINGS, and any initial window grant.
  void start();

  /// Feeds transport bytes (opened TLS application data).
  void on_bytes(util::BytesView bytes);

  // --- client API ----------------------------------------------------------
  /// Opens a new stream with a GET-style header block; returns the stream id.
  std::uint32_t send_request(const hpack::HeaderList& headers);

  // --- server API ----------------------------------------------------------
  void send_response_headers(std::uint32_t stream_id, const hpack::HeaderList& headers,
                             bool end_stream = false);
  /// Writes DATA frames from `data` while the send windows allow and returns
  /// the bytes written. END_STREAM rides on the frame with the last byte (an
  /// empty `data` still gets one); a stream closed by RST_STREAM drops the
  /// bytes and reports them written.
  [[nodiscard]] std::size_t send_data(std::uint32_t stream_id, util::BytesView data,
                                      bool end_stream);
  /// Reserves a promised stream (server push); returns the promised id.
  std::uint32_t push_promise(std::uint32_t parent_stream_id,
                             const hpack::HeaderList& request_headers);

  // --- both sides ----------------------------------------------------------
  void rst_stream(std::uint32_t stream_id, ErrorCode error);

  [[nodiscard]] bool stream_exists(std::uint32_t id) const {
    return streams_.contains(id);
  }
  [[nodiscard]] const Stream& stream(std::uint32_t id) const;
  /// DATA bytes the stream may send now: the smaller of its own and the
  /// connection's send window (zero or less: closed).
  [[nodiscard]] std::int64_t send_window(std::uint32_t stream_id) const {
    return std::min(stream(stream_id).send_window, conn_send_window_);
  }
  [[nodiscard]] std::int64_t connection_send_window() const noexcept {
    return conn_send_window_;
  }
  [[nodiscard]] const Settings& peer_settings() const noexcept { return peer_settings_; }
  [[nodiscard]] const Settings& local_settings() const noexcept {
    return config_.local_settings;
  }
  [[nodiscard]] bool peer_settings_received() const noexcept {
    return peer_settings_received_;
  }

  // --- callbacks ------------------------------------------------------------
  /// Server: a request header block arrived (end_stream: no body follows).
  std::function<void(std::uint32_t, const hpack::HeaderList&, bool)> on_request;
  /// Client: response headers arrived.
  std::function<void(std::uint32_t, const hpack::HeaderList&)> on_response_headers;
  /// Body bytes arrived (end = END_STREAM seen).
  std::function<void(std::uint32_t, util::BytesView, bool end)> on_data;
  std::function<void(std::uint32_t, ErrorCode)> on_rst_stream;
  /// Client: server push promised a resource on `promised` for `parent`.
  std::function<void(std::uint32_t parent, std::uint32_t promised,
                     const hpack::HeaderList&)>
      on_push_promise;
  /// Every frame actually written, with the transport range it landed in.
  std::function<void(std::uint32_t stream_id, FrameType, WireSpan)> on_frame_sent;
  /// A send window grew: a WINDOW_UPDATE for `stream_id` (0 = the
  /// connection), or, with id 0, a SETTINGS frame that raised
  /// INITIAL_WINDOW_SIZE. Whoever holds unsent body bytes offers them again.
  std::function<void(std::uint32_t stream_id)> on_window_update;
  /// Defense hook (RFC 7540 §6.1): called once per DATA frame with the body
  /// length about to be written; returns the pad length (0 = no PADDED
  /// flag). Pad bytes consume flow-control window like body bytes, so the
  /// provider's answer is clamped to the window headroom. Null = unpadded
  /// frames, byte-identical to the pre-defense wire.
  std::function<std::uint8_t(std::size_t payload_len)> data_pad_provider;

 private:
  WireSpan write_frame(const Frame& f);
  void send_header_block(std::uint32_t stream_id, util::Bytes block, bool end_stream);
  void handle_frame(Frame&& f);
  void dispatch_headers(std::uint32_t stream_id, util::Bytes block, bool end_stream);
  Stream& require_stream(std::uint32_t id);
  Stream& ensure_remote_stream(std::uint32_t id);
  WireSpan write_data(std::uint32_t stream_id, util::BytesView payload, bool end_stream,
                      std::uint8_t pad_length);
  void grant_receive_credit(Stream* s, std::size_t consumed);

  Role role_;
  ConnectionConfig config_;
  ByteSink out_;
  util::ByteWriter frame_scratch_;  // reused across write_frame calls
  FrameDecoder decoder_;
  hpack::Encoder hpack_encoder_;
  hpack::Decoder hpack_decoder_;
  Settings peer_settings_{};
  bool peer_settings_received_ = false;
  bool started_ = false;

  std::map<std::uint32_t, Stream> streams_;
  std::uint32_t next_stream_id_;          // odd for client, even for push
  std::uint32_t next_promised_id_ = 2;
  std::int64_t conn_send_window_ = 65'535;
  std::int64_t conn_recv_consumed_ = 0;
  std::int64_t conn_recv_window_ = 65'535;
  std::size_t preface_remaining_;  // server: preface bytes still expected
  // CONTINUATION reassembly state (one header block may span frames).
  std::uint32_t continuation_stream_ = 0;
  util::Bytes continuation_block_;
  bool continuation_end_stream_ = false;
};

}  // namespace h2priv::h2
