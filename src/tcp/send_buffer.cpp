#include "h2priv/tcp/send_buffer.hpp"

#include <stdexcept>

namespace h2priv::tcp {

std::uint64_t SendBuffer::append(util::BytesView data) {
  const std::uint64_t offset = end();
  queue_.append(data);
  return offset;
}

util::BytesView SendBuffer::read_view(std::uint64_t offset,
                                      std::size_t max_len) const {
  if (offset < base_ || offset > end()) {
    throw std::out_of_range("SendBuffer::read: offset outside buffered range");
  }
  return queue_.view(static_cast<std::size_t>(offset - base_), max_len);
}

void SendBuffer::ack(std::uint64_t new_acked) {
  if (new_acked <= base_) return;
  if (new_acked > end()) throw std::out_of_range("SendBuffer::ack: beyond enqueued data");
  queue_.pop(static_cast<std::size_t>(new_acked - base_));
  base_ = new_acked;
}

}  // namespace h2priv::tcp
