#include "h2priv/tcp/send_buffer.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>

namespace h2priv::tcp {
namespace {

TEST(SendBuffer, AppendReturnsStreamOffsets) {
  SendBuffer buf;
  EXPECT_EQ(buf.append(util::patterned_bytes(10, 1)), 0u);
  EXPECT_EQ(buf.append(util::patterned_bytes(5, 2)), 10u);
  EXPECT_EQ(buf.end(), 15u);
  EXPECT_EQ(buf.outstanding(), 15u);
}

TEST(SendBuffer, ReadReturnsCorrectSlices) {
  SendBuffer buf;
  const util::Bytes a = util::patterned_bytes(100, 7);
  buf.append(a);
  const util::BytesView mid = buf.read_view(10, 20);
  ASSERT_EQ(mid.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(mid[static_cast<std::size_t>(i)], a[static_cast<std::size_t>(i) + 10]);
  }
}

TEST(SendBuffer, ReadClampsAtEnd) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 1));
  EXPECT_EQ(buf.read_view(8, 100).size(), 2u);
  EXPECT_EQ(buf.read_view(10, 100).size(), 0u);
}

TEST(SendBuffer, AckReleasesPrefix) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(100, 3));
  buf.ack(40);
  EXPECT_EQ(buf.acked(), 40u);
  EXPECT_EQ(buf.outstanding(), 60u);
  // Data above the ack point still readable and correct.
  const util::Bytes a = util::patterned_bytes(100, 3);
  const util::BytesView tail = buf.read_view(40, 60);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), a.begin() + 40));
}

TEST(SendBuffer, ReadBelowAckedThrows) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(100, 3));
  buf.ack(50);
  EXPECT_THROW((void)buf.read_view(49, 1), std::out_of_range);
  EXPECT_NO_THROW((void)buf.read_view(50, 1));
}

TEST(SendBuffer, AckBeyondEndThrows) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 3));
  EXPECT_THROW(buf.ack(11), std::out_of_range);
}

TEST(SendBuffer, DuplicateAckIsIgnored) {
  SendBuffer buf;
  buf.append(util::patterned_bytes(10, 3));
  buf.ack(5);
  buf.ack(5);
  buf.ack(3);  // old ack: no-op
  EXPECT_EQ(buf.acked(), 5u);
}

TEST(SendBuffer, ReadViewAliasesStorageAndSurvivesAck) {
  SendBuffer buf;
  const util::Bytes a = util::patterned_bytes(200, 9);
  buf.append(a);
  const util::BytesView v = buf.read_view(50, 100);
  ASSERT_EQ(v.size(), 100u);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), a.begin() + 50));
  // ack() only advances the dead prefix — the view stays valid.
  buf.ack(150);
  EXPECT_TRUE(std::equal(v.begin(), v.end(), a.begin() + 50));
  // And a fresh view at the same offset points into the same storage.
  EXPECT_EQ(buf.read_view(150, 10).data(), v.data() + 100);
}

// Property test: the ring/compacting implementation must be observationally
// identical to the old std::deque<uint8_t> implementation under arbitrary
// interleavings of append / read / ack. The reference model below IS that
// old implementation (deque + erase-prefix on ack).
TEST(SendBuffer, RandomOpsMatchDequeReferenceModel) {
  struct Reference {
    std::uint64_t base = 0;
    std::deque<std::uint8_t> q;
  };
  std::mt19937 rng(0xc0ffee);
  for (int trial = 0; trial < 20; ++trial) {
    SendBuffer buf;
    Reference ref;
    for (int op = 0; op < 400; ++op) {
      switch (rng() % 3) {
        case 0: {  // append 1..3000 patterned bytes
          const std::size_t n = 1 + rng() % 3'000;
          const util::Bytes chunk =
              util::patterned_bytes(n, static_cast<std::uint32_t>(rng()));
          ASSERT_EQ(buf.append(chunk), ref.base + ref.q.size());
          ref.q.insert(ref.q.end(), chunk.begin(), chunk.end());
          break;
        }
        case 1: {  // read a random in-range window, compare byte-for-byte
          if (ref.q.empty()) break;
          const std::uint64_t off = ref.base + rng() % ref.q.size();
          const std::size_t len = 1 + rng() % 2'000;
          const util::BytesView got = buf.read_view(off, len);
          const std::size_t avail = ref.q.size() - (off - ref.base);
          ASSERT_EQ(got.size(), std::min(len, avail));
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], ref.q[off - ref.base + i]) << "trial " << trial;
          }
          break;
        }
        default: {  // ack a random prefix (possibly stale / duplicate)
          const std::uint64_t target = ref.base + rng() % (ref.q.size() + 1);
          buf.ack(target);
          if (target > ref.base) {
            ref.q.erase(ref.q.begin(),
                        ref.q.begin() + static_cast<std::ptrdiff_t>(target - ref.base));
            ref.base = target;
          }
          break;
        }
      }
      ASSERT_EQ(buf.acked(), ref.base);
      ASSERT_EQ(buf.end(), ref.base + ref.q.size());
      ASSERT_EQ(buf.outstanding(), ref.q.size());
    }
  }
}

TEST(SendBuffer, OffsetsSurviveManyAckCycles) {
  SendBuffer buf;
  std::uint64_t offset = 0;
  for (int round = 0; round < 50; ++round) {
    const util::Bytes chunk =
        util::patterned_bytes(1'000, static_cast<std::uint32_t>(round));
    EXPECT_EQ(buf.append(chunk), offset);
    const util::BytesView back = buf.read_view(offset, 1'000);
    EXPECT_EQ(util::Bytes(back.begin(), back.end()), chunk);
    offset += 1'000;
    buf.ack(offset);
    EXPECT_EQ(buf.outstanding(), 0u);
  }
}

}  // namespace
}  // namespace h2priv::tcp
