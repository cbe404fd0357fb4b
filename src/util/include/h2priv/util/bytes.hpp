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

/// Unaligned 16/32/64-bit loads and stores in a fixed byte order. Every host
/// takes the same path — a memcpy, byte-swapped where the host's order
/// differs — so the bytes produced never depend on the host. (A
/// shift-per-byte loop gives the same bytes, but gcc 12 does not merge it
/// into word accesses.)
namespace detail {
template <typename T>
[[nodiscard]] inline T byteswap(T v) noexcept {
  if constexpr (sizeof(T) == 2) {
    return __builtin_bswap16(v);
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    static_assert(sizeof(T) == 8);
    return __builtin_bswap64(v);
  }
}
template <typename T, std::endian kOrder>
[[nodiscard]] inline T load(const std::uint8_t* p) noexcept {
  T v{};
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native != kOrder) v = byteswap(v);
  return v;
}
template <typename T, std::endian kOrder>
inline void store(std::uint8_t* p, T v) noexcept {
  if constexpr (std::endian::native != kOrder) v = byteswap(v);
  std::memcpy(p, &v, sizeof v);
}
}  // namespace detail

/// Little-endian 64-bit words, for word-wide passes over byte buffers (the
/// TLS record tag, synthetic object bodies).
[[nodiscard]] inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  return detail::load<std::uint64_t, std::endian::little>(p);
}
inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  detail::store<std::uint64_t, std::endian::little>(p, v);
}

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
  void u16(std::uint16_t v) { put_be(v); }
  /// The low 24 bits; throws std::invalid_argument if v >= 2^24.
  void u24(std::uint32_t v) {
    if (v >= (1u << 24)) throw std::invalid_argument("u24 value out of range");
    ensure(3);
    const auto low = static_cast<std::uint16_t>(v);
    data_[len_] = static_cast<std::uint8_t>(v >> 16);
    detail::store<std::uint16_t, std::endian::big>(data_ + len_ + 1, low);
    len_ += 3;
  }
  void u32(std::uint32_t v) { put_be(v); }
  void u64(std::uint64_t v) { put_be(v); }
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
  template <typename T>
  void put_be(T v) {
    ensure(sizeof v);
    detail::store<T, std::endian::big>(data_ + len_, v);
    len_ += sizeof v;
  }

  BufferPool* pool_ = nullptr;           // nullptr => vector backend
  Bytes buf_;                            // vector backend storage (size == cap_)
  detail::ChunkHeader* chunk_ = nullptr; // pool backend storage (refs == 1)
  std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t cap_ = 0;
};

/// Consumes big-endian scalars and byte runs from a non-owned view. Every
/// read is inline: a bounds check, then a load. A read past the end throws
/// OutOfBounds and leaves position() where it was.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return data_[pos_++];
  }
  /// Reads the next byte without consuming it.
  [[nodiscard]] std::uint8_t peek_u8() const {
    require(1);
    return data_[pos_];
  }
  [[nodiscard]] std::uint16_t u16() { return take_be<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u24() {
    require(3);
    const std::uint8_t* p = data_.data() + pos_;
    const std::uint32_t low = detail::load<std::uint16_t, std::endian::big>(p + 1);
    pos_ += 3;
    return (std::uint32_t{p[0]} << 16) | low;
  }
  [[nodiscard]] std::uint32_t u32() { return take_be<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return take_be<std::uint64_t>(); }
  [[nodiscard]] BytesView bytes(std::size_t n) {
    require(n);
    const BytesView v(data_.data() + pos_, n);
    pos_ += n;
    return v;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) out_of_bounds(n, remaining());
  }
  /// Throws OutOfBounds("ByteReader: need N bytes, have M"); out of line so
  /// the inlined reads stay small.
  [[noreturn]] static void out_of_bounds(std::size_t need, std::size_t have);
  template <typename T>
  [[nodiscard]] T take_be() {
    require(sizeof(T));
    const T v = detail::load<T, std::endian::big>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

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
