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

void ByteReader::out_of_bounds(std::size_t need, std::size_t have) {
  throw OutOfBounds("ByteReader: need " + std::to_string(need) + " bytes, have " +
                    std::to_string(have));
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
