#include "h2priv/util/buffer_pool.hpp"

#include <cstring>
#include <new>

#include "h2priv/obs/metrics.hpp"

namespace h2priv::util {

namespace detail {

ChunkHeader* new_chunk(std::size_t cap, BufferPool* pool) {
  auto* h = static_cast<ChunkHeader*>(::operator new(sizeof(ChunkHeader) + cap));
  h->refs = 1;
  h->cap = static_cast<std::uint32_t>(cap);
  h->pool = pool;
  return h;
}

void free_chunk(ChunkHeader* h) noexcept { ::operator delete(h); }

void release_chunk(ChunkHeader* h) noexcept {
  if (--h->refs != 0) return;
  if (h->pool != nullptr) {
    h->pool->recycle(h);
  } else {
    free_chunk(h);
  }
}

namespace {
// While parked on a free list, the first payload word links to the next
// parked chunk (the payload is dead storage between uses).
ChunkHeader*& next_of(ChunkHeader* h) noexcept {
  return *reinterpret_cast<ChunkHeader**>(h->payload());
}
}  // namespace

}  // namespace detail

BufferPool::~BufferPool() {
  for (detail::ChunkHeader* head : free_) {
    while (head != nullptr) {
      detail::ChunkHeader* next = detail::next_of(head);
      detail::free_chunk(head);
      head = next;
    }
  }
}

detail::ChunkHeader* BufferPool::acquire(std::size_t size) {
  // Resolved per call, not cached: the thread_local default_pool() outlives
  // any ScopedRegistry installed by a Monte-Carlo worker.
  obs::Registry& reg = obs::current();
  ++stats_.served;
  reg.add(obs::Counter::kPoolChunksServed);
  for (std::size_t i = 0; i < kClassSizes.size(); ++i) {
    if (size > kClassSizes[i]) continue;
    if (detail::ChunkHeader* h = free_[i]; h != nullptr) {
      free_[i] = detail::next_of(h);
      h->refs = 1;
      ++stats_.reused;
      reg.add(obs::Counter::kPoolChunksReused);
      return h;
    }
    ++stats_.fresh;
    reg.add(obs::Counter::kPoolChunksFresh);
    return detail::new_chunk(kClassSizes[i], this);
  }
  ++stats_.oversize;
  reg.add(obs::Counter::kPoolChunksOversize);
  return detail::new_chunk(size, nullptr);
}

void BufferPool::recycle(detail::ChunkHeader* h) noexcept {
  for (std::size_t i = 0; i < kClassSizes.size(); ++i) {
    if (h->cap == kClassSizes[i]) {
      detail::next_of(h) = free_[i];
      free_[i] = h;
      return;
    }
  }
  detail::free_chunk(h);  // unreachable for pool-owned chunks; belt & braces
}

BufferPool& default_pool() noexcept {
  thread_local BufferPool pool;
  return pool;
}

SharedBytes& SharedBytes::operator=(const SharedBytes& o) noexcept {
  if (this == &o) return *this;
  if (o.hdr_ != nullptr) ++o.hdr_->refs;
  if (hdr_ != nullptr) detail::release_chunk(hdr_);
  hdr_ = o.hdr_;
  size_ = o.size_;
  return *this;
}

SharedBytes& SharedBytes::operator=(SharedBytes&& o) noexcept {
  if (this == &o) return *this;
  if (hdr_ != nullptr) detail::release_chunk(hdr_);
  hdr_ = o.hdr_;
  size_ = o.size_;
  o.hdr_ = nullptr;
  o.size_ = 0;
  return *this;
}

SharedBytes SharedBytes::copy_of(BytesView v, BufferPool* pool) {
  detail::ChunkHeader* h =
      pool != nullptr ? pool->acquire(v.size()) : detail::new_chunk(v.size(), nullptr);
  if (!v.empty()) std::memcpy(h->payload(), v.data(), v.size());
  return adopt(h, v.size());
}

}  // namespace h2priv::util
