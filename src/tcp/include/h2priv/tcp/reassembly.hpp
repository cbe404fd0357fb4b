// Receiver-side out-of-order reassembly buffer.
//
// Stores segments above rcv_nxt, trims overlaps, and drains the contiguous
// prefix once the gap fills. Duplicate retransmissions are absorbed here —
// which is exactly why the paper's "extra object copies" have to come from
// the application layer (see DESIGN.md §2).
//
// A segment that arrives in order while nothing is buffered (the steady
// state) is never copied: offer() hands back a view into the caller's bytes.
// Storage for everything else is one contiguous byte window that starts at
// rcv_nxt, plus a sorted vector of the filled ranges above it. Each new byte
// is copied into the window once; a drained prefix is handed out as a view
// into the window and its dead bytes are reclaimed the way tcp::SendBuffer
// reclaims acked ones (live bytes slide down once the dead prefix is at
// least as large).
// The window never reaches further than kMaxWindow bytes past rcv_nxt: a
// segment ending beyond that is dropped, so a hostile sequence jump costs
// no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "h2priv/util/bytes.hpp"

namespace h2priv::tcp {

class Reassembly {
 public:
  /// How far past rcv_nxt a buffered byte may lie — far above any receive
  /// window a live peer advertises (tcp::Connection advertises 256 KiB;
  /// connection.cpp static_asserts the margin).
  static constexpr std::uint64_t kMaxWindow = 16 * 1024 * 1024;

  explicit Reassembly(std::uint64_t initial_rcv_nxt = 0) noexcept
      : rcv_nxt_(initial_rcv_nxt) {}

  /// Offers a segment at absolute stream offset `seq` and returns the bytes
  /// that became deliverable in order (possibly empty). With nothing
  /// buffered and `seq <= rcv_nxt` (the steady state) the segment is
  /// consumed in place and the view points into `data`; otherwise new bytes
  /// are copied once into the window and the view points there. Either way
  /// the view is valid until the next offer(), and never longer than `data`.
  /// Bytes already buffered win over a diverging copy (first arrival wins).
  /// A gapped segment ending more than kMaxWindow past rcv_nxt is dropped.
  [[nodiscard]] util::BytesView offer(std::uint64_t seq, util::BytesView data) {
    if (!ranges_.empty() || seq > rcv_nxt_) return buffer(seq, data);
    const std::uint64_t seg_end = seq + data.size();
    if (seg_end <= rcv_nxt_) return {};  // already delivered
    const auto skip = static_cast<std::size_t>(rcv_nxt_ - seq);
    rcv_nxt_ = seg_end;
    return data.subspan(skip);
  }

  [[nodiscard]] std::uint64_t rcv_nxt() const noexcept { return rcv_nxt_; }
  [[nodiscard]] std::size_t buffered_bytes() const noexcept { return buffered_; }
  [[nodiscard]] bool has_gaps() const noexcept { return !ranges_.empty(); }

 private:
  /// Filled stream range [begin, end) above rcv_nxt.
  struct Range {
    std::uint64_t begin;
    std::uint64_t end;
  };

  /// offer()'s slow path: buffers `data` in the window and drains the
  /// contiguous prefix, if any.
  [[nodiscard]] util::BytesView buffer(std::uint64_t seq, util::BytesView data);

  /// Reclaims the dead prefix and grows the window to reach stream offset
  /// `end` (at most kMaxWindow past rcv_nxt).
  void make_room(std::uint64_t end);

  std::uint64_t rcv_nxt_;
  std::size_t buffered_ = 0;
  util::Bytes window_;         // storage; window_[head_] is stream offset rcv_nxt_
  std::size_t head_ = 0;       // delivered (dead) bytes still at the front
  std::vector<Range> ranges_;  // sorted, disjoint and non-adjacent
};

}  // namespace h2priv::tcp
