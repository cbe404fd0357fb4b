// FIFO byte queue over contiguous storage — the pattern behind both the
// h2 frame decoder's reassembly buffer and (with stream offsets layered on
// top) tcp::SendBuffer. A dead-byte prefix makes pop() O(1); append()
// reclaims the prefix by sliding the live bytes down once the prefix is at
// least as large as the live region, so each byte is moved at most once
// per time it is popped (amortized O(1)). Contiguity is the point:
// front() and view() hand out zero-copy views that encoders can write
// straight to the wire, where std::deque<uint8_t> forced a gather-copy per
// frame.
#pragma once

#include <algorithm>
#include <cstddef>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {

class ByteQueue {
 public:
  void append(BytesView data) {
    if (head_ > 0 && head_ >= size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Zero-copy view of the first min(max_len, size()) queued bytes. Valid
  /// until the next append(); pop() does not invalidate it.
  [[nodiscard]] BytesView front(std::size_t max_len) const noexcept {
    return view(0, max_len);
  }

  /// Zero-copy view of up to `max_len` queued bytes starting `pos` bytes
  /// past the front (pos <= size()). Same lifetime as front().
  [[nodiscard]] BytesView view(std::size_t pos, std::size_t max_len) const noexcept {
    return {buf_.data() + head_ + pos, std::min(max_len, size() - pos)};
  }

  /// Discards the first min(n, size()) bytes.
  void pop(std::size_t n) noexcept { head_ += std::min(n, size()); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size() - head_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  Bytes buf_;               // dead prefix + queued bytes
  std::size_t head_ = 0;    // popped bytes still occupying the front
};

}  // namespace h2priv::util
