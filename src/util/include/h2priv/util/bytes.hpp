// Byte-buffer primitives shared by every wire-format codec in the project.
//
// ByteWriter appends big-endian integers and raw spans to a growable buffer;
// ByteReader consumes them with bounds checking. All protocol encoders
// (TCP segment headers, TLS records, HTTP/2 frames, HPACK) are built on
// these two types so that framing bugs surface as exceptions, not UB.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace h2priv::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

class BufferPool;
class SharedBytes;
namespace detail {
struct ChunkHeader;
}

/// Thrown by ByteReader when a read would run past the end of the buffer.
class OutOfBounds : public std::runtime_error {
 public:
  explicit OutOfBounds(const std::string& what) : std::runtime_error(what) {}
};

/// Appends big-endian scalars and byte runs to an owned buffer.
///
/// Two backends share one write path: the default vector backend (take()
/// moves the Bytes out) and a pool backend (take_shared() hands the chunk
/// off zero-copy as a SharedBytes). Encoders that know their exact output
/// size should reserve() it up front so the hot path never grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve_bytes) { reserve(reserve_bytes); }
  /// Pool-backed writer; take_shared() is then allocation-free on reuse.
  ByteWriter(BufferPool& pool, std::size_t reserve_bytes);
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;
  ~ByteWriter();

  void u8(std::uint8_t v) {
    ensure(1);
    data_[len_++] = v;
  }
  void u16(std::uint16_t v) {
    ensure(2);
    data_[len_] = static_cast<std::uint8_t>(v >> 8);
    data_[len_ + 1] = static_cast<std::uint8_t>(v);
    len_ += 2;
  }
  void u24(std::uint32_t v);  ///< low 24 bits; throws std::invalid_argument if v >= 2^24
  void u32(std::uint32_t v) {
    ensure(4);
    for (int i = 0; i < 4; ++i) {
      data_[len_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (24 - 8 * i));
    }
    len_ += 4;
  }
  void u64(std::uint64_t v);
  void bytes(BytesView v) {
    ensure(v.size());
    if (!v.empty()) std::memcpy(data_ + len_, v.data(), v.size());
    len_ += v.size();
  }
  void bytes(std::string_view v);
  /// Appends `n` copies of `fill`.
  void fill(std::size_t n, std::uint8_t fill_byte);
  /// Appends `n` bytes for the caller to fill and returns where they start
  /// (valid until the next write). Their initial contents are unspecified.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    ensure(n);
    std::uint8_t* at = data_ + len_;
    len_ += n;
    return at;
  }

  /// Guarantees room for `n` more bytes without reallocation.
  void reserve(std::size_t n) { ensure(n); }
  /// Drops the contents but keeps the storage — for reusable scratch writers.
  void clear() noexcept { len_ = 0; }

  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] BytesView view() const noexcept { return {data_, len_}; }
  /// Moves the accumulated buffer out; the writer is empty afterwards.
  /// (Pool-backed writers copy here — use take_shared() on the hot path.)
  [[nodiscard]] Bytes take();
  /// Hands the contents off as a SharedBytes; the writer is empty afterwards.
  /// Zero-copy for pool-backed writers, one copy for vector-backed ones.
  [[nodiscard]] SharedBytes take_shared();

 private:
  void ensure(std::size_t extra) {
    if (cap_ - len_ < extra) grow(extra);
  }
  void grow(std::size_t need);

  BufferPool* pool_ = nullptr;           // nullptr => vector backend
  Bytes buf_;                            // vector backend storage (size == cap_)
  detail::ChunkHeader* chunk_ = nullptr; // pool backend storage (refs == 1)
  std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t cap_ = 0;
};

/// Little-endian 64-bit load/store at any alignment, for word-wide passes
/// over byte buffers (the TLS keystream, synthetic object bodies). Every
/// host takes the same path — a memcpy, byte-swapped on big-endian targets —
/// so the bytes produced never depend on the host. (A shift-per-byte loop
/// gives the same bytes, but gcc 12 does not merge it into word accesses.)
[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}
inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

/// Consumes big-endian scalars and byte runs from a non-owned view.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  /// Reads the next byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const;
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u24();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] BytesView bytes(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  void skip(std::size_t n);

 private:
  void require(std::size_t n) const;
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Builds a deterministic pseudo-content buffer of length `n` whose bytes are a
/// function of (`tag`, index): word k (bytes 8k..8k+7, little-endian, the last
/// word truncated) is the k-th splitmix64 output of a `tag`-seeded stream, so
/// a shorter buffer is a prefix of a longer one. Used for synthetic web
/// objects so that reassembled payloads can be integrity-checked end to end.
[[nodiscard]] Bytes patterned_bytes(std::size_t n, std::uint32_t tag);

}  // namespace h2priv::util
