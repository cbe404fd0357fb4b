#include "h2priv/tcp/reassembly.hpp"

#include <gtest/gtest.h>

#include "h2priv/sim/rng.hpp"
#include "hex.hpp"

namespace h2priv::tcp {
namespace {

using h2priv::testing::to_bytes;

util::Bytes slice(const util::Bytes& all, std::size_t from, std::size_t len) {
  return util::Bytes(all.begin() + static_cast<std::ptrdiff_t>(from),
                     all.begin() + static_cast<std::ptrdiff_t>(from + len));
}

/// offer() returns a view valid until the next offer (and no longer than the
/// offered bytes); compare a copy.
util::Bytes copy(util::BytesView v) { return util::Bytes(v.begin(), v.end()); }

TEST(Reassembly, InOrderDeliversImmediately) {
  Reassembly r(0);
  const util::Bytes out = copy(r.offer(0, to_bytes("hello")));
  EXPECT_EQ(out, to_bytes("hello"));
  EXPECT_EQ(r.rcv_nxt(), 5u);
  EXPECT_FALSE(r.has_gaps());
}

TEST(Reassembly, InOrderOfferIsAViewIntoTheCallersBytes) {
  Reassembly r(10);
  const util::Bytes first = to_bytes("hello");
  const util::BytesView out = r.offer(10, first);
  EXPECT_EQ(out.data(), first.data());
  EXPECT_EQ(out.size(), first.size());
  // A retransmitted head ("lo") ahead of new bytes: the view starts at the
  // first undelivered byte, still inside the caller's buffer.
  const util::Bytes second = to_bytes("loworld");
  const util::BytesView tail = r.offer(13, second);
  EXPECT_EQ(tail.data(), second.data() + 2);
  EXPECT_EQ(copy(tail), to_bytes("world"));
  EXPECT_EQ(r.rcv_nxt(), 20u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Reassembly, OutOfOrderBuffersUntilGapFills) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(5, to_bytes("world")).empty());
  EXPECT_TRUE(r.has_gaps());
  EXPECT_EQ(r.buffered_bytes(), 5u);
  const util::Bytes out = copy(r.offer(0, to_bytes("hello")));
  EXPECT_EQ(out, to_bytes("helloworld"));
  EXPECT_EQ(r.rcv_nxt(), 10u);
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(Reassembly, DuplicateSegmentsAreAbsorbed) {
  Reassembly r(0);
  (void)r.offer(0, to_bytes("abc"));
  EXPECT_TRUE(r.offer(0, to_bytes("abc")).empty());
  EXPECT_EQ(r.rcv_nxt(), 3u);
}

TEST(Reassembly, PartiallyOldSegmentDeliversOnlyNewTail) {
  Reassembly r(0);
  (void)r.offer(0, to_bytes("abc"));
  const util::Bytes out = copy(r.offer(1, to_bytes("bcde")));
  EXPECT_EQ(out, to_bytes("de"));
  EXPECT_EQ(r.rcv_nxt(), 5u);
}

TEST(Reassembly, OverlapWithBufferedSegmentTrimsBothSides) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(4, to_bytes("efgh")).empty());
  // Overlaps buffered [4,8) on its left edge and extends right.
  EXPECT_TRUE(r.offer(6, to_bytes("ghij")).empty());
  const util::Bytes out = copy(r.offer(0, to_bytes("abcd")));
  EXPECT_EQ(out, to_bytes("abcdefghij"));
}

TEST(Reassembly, SegmentBridgingTwoBufferedPieces) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(2, to_bytes("cd")).empty());
  EXPECT_TRUE(r.offer(6, to_bytes("gh")).empty());
  // Bridges both: covers [2,8).
  EXPECT_TRUE(r.offer(2, to_bytes("cdefgh")).empty());
  const util::Bytes out = copy(r.offer(0, to_bytes("ab")));
  EXPECT_EQ(out, to_bytes("abcdefgh"));
}

TEST(Reassembly, FullyCoveredSegmentIsDropped) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(2, to_bytes("cdef")).empty());
  EXPECT_TRUE(r.offer(3, to_bytes("de")).empty());
  EXPECT_EQ(r.buffered_bytes(), 4u);
}

TEST(Reassembly, NonZeroInitialSequence) {
  Reassembly r(1'000);
  EXPECT_TRUE(r.offer(500, to_bytes("old")).empty()) << "below rcv_nxt: ignored";
  const util::Bytes out = copy(r.offer(1'000, to_bytes("xy")));
  EXPECT_EQ(out, to_bytes("xy"));
  EXPECT_EQ(r.rcv_nxt(), 1'002u);
}

TEST(Reassembly, EmptyOfferIsHarmless) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(0, util::BytesView{}).empty());
  EXPECT_EQ(r.rcv_nxt(), 0u);
}

TEST(Reassembly, DivergentRetransmissionKeepsFirstArrival) {
  Reassembly r(0);
  EXPECT_TRUE(r.offer(2, to_bytes("XY")).empty());
  // Covers the buffered bytes with different ones: the buffered ones win.
  EXPECT_EQ(copy(r.offer(0, to_bytes("abcdef"))), to_bytes("abXYef"));
}

TEST(Reassembly, SegmentFarPastTheWindowIsDroppedNotBuffered) {
  Reassembly r(1);
  (void)r.offer(3, to_bytes("cd"));  // a real gap, buffered
  ASSERT_EQ(r.buffered_bytes(), 2u);
  // A hostile sequence jump (e.g. a crafted .h2t): dropped without growing
  // the window to reach it.
  EXPECT_TRUE(r.offer(1 + (std::uint64_t{1} << 40), to_bytes("zz")).empty());
  EXPECT_EQ(r.buffered_bytes(), 2u);
  EXPECT_EQ(r.rcv_nxt(), 1u);
  // Later in-order data still arrives, with the earlier gap's bytes.
  EXPECT_EQ(copy(r.offer(1, to_bytes("ab"))), to_bytes("abcd"));
  EXPECT_EQ(r.buffered_bytes(), 0u);
  EXPECT_FALSE(r.has_gaps());
}

TEST(Reassembly, WindowBoundIsInclusive) {
  Reassembly r(0);
  // Ends exactly kMaxWindow past rcv_nxt: buffered.
  EXPECT_TRUE(r.offer(Reassembly::kMaxWindow - 1, to_bytes("x")).empty());
  EXPECT_EQ(r.buffered_bytes(), 1u);
  // One byte further: dropped.
  EXPECT_TRUE(r.offer(Reassembly::kMaxWindow, to_bytes("y")).empty());
  EXPECT_EQ(r.buffered_bytes(), 1u);
}

// Property: any segmentation of a buffer, delivered in any order with
// duplicates, reassembles to exactly the original bytes.
class ReassemblyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyProperty, RandomSegmentationReassemblesExactly) {
  sim::Rng rng(GetParam());
  const std::size_t total = 10'000;
  const util::Bytes data = util::patterned_bytes(total, 77);

  // Build random, possibly overlapping segments covering the buffer.
  struct Piece {
    std::size_t from;
    std::size_t len;
  };
  std::vector<Piece> pieces;
  std::size_t covered = 0;
  while (covered < total) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(1, 700));
    pieces.push_back({covered, std::min(len, total - covered)});
    covered += pieces.back().len;
  }
  // Duplicates and overlapping extras.
  const std::size_t base_count = pieces.size();
  for (std::size_t i = 0; i < base_count / 2; ++i) {
    // A copy: the push_back below may reallocate `pieces`.
    const Piece p = pieces[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(base_count) - 1))];
    pieces.push_back(p);
    const std::size_t from = p.from / 2;
    pieces.push_back({from, std::min<std::size_t>(p.len + 13, total - from)});
  }
  rng.shuffle(pieces);

  // Stream offsets start at a nonzero initial sequence number (1 for seed 0,
  // past 2^32 from seed 1 on).
  const std::uint64_t base = 1 + GetParam() * 0x1'0000'0001ull;
  Reassembly r(base);
  util::Bytes out;
  for (const Piece& p : pieces) {
    // An in-order view may point into the segment: keep it alive.
    const util::Bytes segment = slice(data, p.from, p.len);
    const util::BytesView delivered = r.offer(base + p.from, segment);
    out.insert(out.end(), delivered.begin(), delivered.end());
  }
  EXPECT_EQ(out, data);
  EXPECT_EQ(r.rcv_nxt(), base + total);
  EXPECT_FALSE(r.has_gaps());
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace h2priv::tcp
