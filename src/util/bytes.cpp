#include "h2priv/util/bytes.hpp"

#include <algorithm>
#include <stdexcept>

#include "h2priv/util/buffer_pool.hpp"

namespace h2priv::util {

ByteWriter::ByteWriter(BufferPool& pool, std::size_t reserve_bytes) : pool_(&pool) {
  chunk_ = pool.acquire(std::max<std::size_t>(reserve_bytes, 1));
  data_ = chunk_->payload();
  cap_ = chunk_->cap;
}

ByteWriter::~ByteWriter() {
  if (chunk_ != nullptr) detail::release_chunk(chunk_);
}

void ByteWriter::grow(std::size_t need) {
  const std::size_t want = std::max({len_ + need, cap_ * 2, std::size_t{32}});
  if (pool_ != nullptr) {
    detail::ChunkHeader* bigger = pool_->acquire(want);
    if (len_ > 0) std::memcpy(bigger->payload(), data_, len_);
    if (chunk_ != nullptr) detail::release_chunk(chunk_);
    chunk_ = bigger;
    data_ = bigger->payload();
    cap_ = bigger->cap;
  } else {
    buf_.resize(want);
    data_ = buf_.data();
    cap_ = want;
  }
}

Bytes ByteWriter::take() {
  if (pool_ != nullptr) {
    Bytes out(data_, data_ + len_);
    len_ = 0;
    return out;
  }
  buf_.resize(len_);
  Bytes out = std::move(buf_);
  buf_ = Bytes{};
  data_ = nullptr;
  len_ = 0;
  cap_ = 0;
  return out;
}

SharedBytes ByteWriter::take_shared() {
  if (pool_ != nullptr) {
    if (chunk_ == nullptr) return SharedBytes{};
    SharedBytes out = SharedBytes::adopt(chunk_, len_);
    chunk_ = nullptr;  // next write re-acquires from the pool via grow()
    data_ = nullptr;
    len_ = 0;
    cap_ = 0;
    return out;
  }
  SharedBytes out = SharedBytes::copy_of(view());
  len_ = 0;
  return out;
}

void ByteWriter::u24(std::uint32_t v) {
  if (v >= (1u << 24)) throw std::invalid_argument("u24 value out of range");
  ensure(3);
  data_[len_] = static_cast<std::uint8_t>(v >> 16);
  data_[len_ + 1] = static_cast<std::uint8_t>(v >> 8);
  data_[len_ + 2] = static_cast<std::uint8_t>(v);
  len_ += 3;
}

void ByteWriter::u64(std::uint64_t v) {
  ensure(8);
  for (int shift = 56; shift >= 0; shift -= 8) {
    data_[len_++] = static_cast<std::uint8_t>(v >> shift);
  }
}

void ByteWriter::bytes(std::string_view v) {
  ensure(v.size());
  if (!v.empty()) std::memcpy(data_ + len_, v.data(), v.size());
  len_ += v.size();
}

void ByteWriter::fill(std::size_t n, std::uint8_t fill_byte) {
  ensure(n);
  std::memset(data_ + len_, fill_byte, n);
  len_ += n;
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw OutOfBounds("ByteReader: need " + std::to_string(n) + " bytes, have " +
                      std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint8_t ByteReader::peek_u8() const {
  require(1);
  return data_[pos_];
}

std::uint16_t ByteReader::u16() {
  require(2);
  const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u24() {
  require(3);
  const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                          (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                          static_cast<std::uint32_t>(data_[pos_ + 2]);
  pos_ += 3;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 8;
  return v;
}

BytesView ByteReader::bytes(std::size_t n) {
  require(n);
  const BytesView v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

Bytes patterned_bytes(std::size_t n, std::uint32_t tag) {
  Bytes out(n);
  // splitmix-style mixing keeps the pattern cheap yet position-sensitive, so
  // any reordering or truncation in transit changes the reassembled payload.
  std::uint64_t state = 0x9e3779b97f4a7c15ull ^ tag;
  for (std::size_t i = 0; i < n; i += 8) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    if (n - i >= 8) {
      store_le64(out.data() + i, z);
    } else {
      for (std::size_t j = i; j < n; ++j, z >>= 8) out[j] = static_cast<std::uint8_t>(z);
    }
  }
  return out;
}

}  // namespace h2priv::util
