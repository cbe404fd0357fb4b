// HTTP/2 frame layer (RFC 7540 §4, §6): the 9-byte frame header, typed
// frame structs, and an incremental decoder that reassembles frames from an
// arbitrary byte-stream chunking.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "h2priv/util/byte_queue.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::h2 {

inline constexpr std::size_t kFrameHeaderBytes = 9;
inline constexpr std::uint32_t kDefaultMaxFrameSize = 16'384;
inline constexpr std::uint32_t kMaxStreamId = 0x7fffffff;

/// The client connection preface (RFC 7540 §3.5).
inline constexpr std::string_view kConnectionPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoAway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

// Frame flags (per-type meaning, RFC 7540 §6).
inline constexpr std::uint8_t kFlagEndStream = 0x01;   // DATA, HEADERS
inline constexpr std::uint8_t kFlagAck = 0x01;         // SETTINGS, PING
inline constexpr std::uint8_t kFlagEndHeaders = 0x04;  // HEADERS, CONTINUATION
inline constexpr std::uint8_t kFlagPadded = 0x08;      // DATA, HEADERS, PUSH_PROMISE
inline constexpr std::uint8_t kFlagPriority = 0x20;    // HEADERS

enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

class FrameError : public std::runtime_error {
 public:
  explicit FrameError(const std::string& what) : std::runtime_error(what) {}
};

struct FrameHeader {
  std::uint32_t length = 0;  // 24-bit payload length
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31-bit
};

struct DataFrame {
  std::uint32_t stream_id = 0;
  util::Bytes data;
  bool end_stream = false;
  std::uint8_t pad_length = 0;  ///< padding bytes appended on the wire
};

struct HeadersFrame {
  std::uint32_t stream_id = 0;
  util::Bytes header_block;  // HPACK-encoded fragment
  bool end_stream = false;
  bool end_headers = true;
  // Optional priority (kFlagPriority).
  bool has_priority = false;
  std::uint32_t stream_dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;  // wire value + 1
};

struct PriorityFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t stream_dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;
};

struct RstStreamFrame {
  std::uint32_t stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
};

struct Setting {
  std::uint16_t id = 0;
  std::uint32_t value = 0;
};

struct SettingsFrame {
  bool ack = false;
  std::vector<Setting> settings;
};

struct PushPromiseFrame {
  std::uint32_t stream_id = 0;
  std::uint32_t promised_stream_id = 0;
  util::Bytes header_block;
  bool end_headers = true;
};

struct PingFrame {
  bool ack = false;
  std::array<std::uint8_t, 8> opaque{};
};

struct GoAwayFrame {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  util::Bytes debug_data;
};

struct WindowUpdateFrame {
  std::uint32_t stream_id = 0;  // 0 = connection window
  std::uint32_t increment = 0;
};

struct ContinuationFrame {
  std::uint32_t stream_id = 0;
  util::Bytes header_block;
  bool end_headers = true;
};

using Frame = std::variant<DataFrame, HeadersFrame, PriorityFrame, RstStreamFrame,
                           SettingsFrame, PushPromiseFrame, PingFrame, GoAwayFrame,
                           WindowUpdateFrame, ContinuationFrame>;

[[nodiscard]] FrameType frame_type(const Frame& f) noexcept;
[[nodiscard]] std::uint32_t frame_stream_id(const Frame& f) noexcept;

/// Encodes a frame (header + payload) into wire bytes.
[[nodiscard]] util::Bytes encode_frame(const Frame& f);

/// Encodes into a caller-owned writer (reserves the exact frame size).
/// Lets h2::Connection reuse one scratch buffer for every frame it writes.
void encode_frame_into(util::ByteWriter& w, const Frame& f);

/// Encodes a DATA frame straight from a borrowed payload view — the hot
/// body path never materialises a DataFrame (whose `data` member owns a
/// copy). Bit-identical to encoding the equivalent DataFrame.
void encode_data_into(util::ByteWriter& w, std::uint32_t stream_id, util::BytesView data,
                      bool end_stream, std::uint8_t pad_length);

/// Incremental decoder: feed() arbitrary chunks, poll next() for frames.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_size = kDefaultMaxFrameSize) noexcept
      : max_frame_size_(max_frame_size) {}

  void feed(util::BytesView bytes) { buf_.append(bytes); }

  /// Returns the next complete frame, or nullopt if more bytes are needed.
  /// Throws FrameError on malformed frames.
  [[nodiscard]] std::optional<Frame> next();

  void set_max_frame_size(std::uint32_t v) noexcept { max_frame_size_ = v; }
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  std::uint32_t max_frame_size_;
  util::ByteQueue buf_;  // contiguous: consuming a frame is a pop, not an erase

};

}  // namespace h2priv::h2
