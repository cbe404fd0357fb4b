// Sender-side byte stream: application bytes keyed by absolute stream
// offset, with retransmission reads anywhere in the unacknowledged range.
//
// A util::ByteQueue of the unacknowledged bytes plus the stream offset of
// its front: ack() pops the queue (O(1)), append() lets it reclaim the acked
// prefix, and the queue's contiguous storage is what lets read_view() hand
// out zero-copy slices at any offset, which in turn keeps segment
// boundaries — and therefore the wire bytes — identical to the old deque
// implementation.
#pragma once

#include <cstdint>

#include "h2priv/util/byte_queue.hpp"
#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

class SendBuffer {
 public:
  /// Appends application bytes; returns the stream offset of the first byte.
  std::uint64_t append(util::BytesView data);

  /// Zero-copy slice of up to `max_len` bytes starting at stream offset
  /// `offset`. The view is valid until the next append() (which may compact
  /// or reallocate the storage); ack() does not invalidate it.
  /// Throws std::out_of_range if offset is below the acked watermark or past
  /// the end of enqueued data.
  [[nodiscard]] util::BytesView read_view(std::uint64_t offset,
                                          std::size_t max_len) const;

  /// Releases bytes below `new_acked` (cumulative ACK advanced). O(1).
  void ack(std::uint64_t new_acked);

  [[nodiscard]] std::uint64_t acked() const noexcept { return base_; }
  [[nodiscard]] std::uint64_t end() const noexcept { return base_ + queue_.size(); }
  /// Bytes enqueued and not yet acknowledged.
  [[nodiscard]] std::uint64_t outstanding() const noexcept { return queue_.size(); }

 private:
  util::ByteQueue queue_;   // unacked bytes (sent or not), front = base_
  std::uint64_t base_ = 0;  // stream offset of the queue's front
};

}  // namespace h2priv::tcp
