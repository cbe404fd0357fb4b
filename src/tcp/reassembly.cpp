#include "h2priv/tcp/reassembly.hpp"

#include <algorithm>
#include <cstring>

namespace h2priv::tcp {

void Reassembly::make_room(std::uint64_t end) {
  const std::size_t live =
      ranges_.empty() ? 0 : static_cast<std::size_t>(ranges_.back().end - rcv_nxt_);
  // Reclaim the delivered prefix once it dominates the live bytes (each byte
  // slides at most once per time it is delivered past, as in SendBuffer).
  if (head_ > 0 && head_ >= live) {
    if (live > 0) std::memmove(window_.data(), window_.data() + head_, live);
    head_ = 0;
  }
  const std::size_t need = head_ + static_cast<std::size_t>(end - rcv_nxt_);
  if (window_.size() < need) {
    window_.resize(std::max(need, std::min<std::size_t>(2 * window_.size(), kMaxWindow)));
  }
}

util::BytesView Reassembly::buffer(std::uint64_t seq, util::BytesView data) {
  std::uint64_t begin = seq;
  const std::uint64_t seg_end = seq + data.size();

  // Trim anything already delivered; drop what no window could hold.
  if (data.empty() || seg_end <= rcv_nxt_ || seg_end - rcv_nxt_ > kMaxWindow) return {};
  if (begin < rcv_nxt_) {
    data = data.subspan(static_cast<std::size_t>(rcv_nxt_ - begin));
    begin = rcv_nxt_;
  }
  make_room(seg_end);

  // Copy only the stretches no buffered range covers (existing bytes are
  // identical on a faithful retransmission; on divergence first arrival
  // wins), and merge [begin, seg_end) with every range it overlaps or
  // touches.
  const auto copy = [&](std::uint64_t from, std::uint64_t to) {
    std::memcpy(window_.data() + head_ + static_cast<std::size_t>(from - rcv_nxt_),
                data.data() + static_cast<std::size_t>(from - begin),
                static_cast<std::size_t>(to - from));
    buffered_ += static_cast<std::size_t>(to - from);
  };
  const auto first = std::lower_bound(
      ranges_.begin(), ranges_.end(), begin,
      [](const Range& r, std::uint64_t at) { return r.end < at; });
  Range merged{begin, seg_end};
  std::uint64_t at = begin;
  auto it = first;
  for (; it != ranges_.end() && it->begin <= seg_end; ++it) {
    if (at < it->begin) copy(at, it->begin);
    at = std::max(at, it->end);
    merged.begin = std::min(merged.begin, it->begin);
    merged.end = std::max(merged.end, it->end);
  }
  if (at < seg_end) copy(at, seg_end);
  if (it == first) {
    ranges_.insert(first, merged);
  } else {
    *first = merged;
    ranges_.erase(first + 1, it);
  }

  // Drain the contiguous prefix.
  if (ranges_.front().begin != rcv_nxt_) return {};
  const auto n = static_cast<std::size_t>(ranges_.front().end - rcv_nxt_);
  ranges_.erase(ranges_.begin());
  const util::BytesView delivered(window_.data() + head_, n);
  head_ += n;
  rcv_nxt_ += n;
  buffered_ -= n;
  return delivered;
}

}  // namespace h2priv::tcp
