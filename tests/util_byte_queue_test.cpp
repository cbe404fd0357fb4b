#include "h2priv/util/byte_queue.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>

namespace h2priv::util {
namespace {

TEST(ByteQueue, AppendFrontPopRoundTrip) {
  ByteQueue q;
  EXPECT_TRUE(q.empty());
  const Bytes a = patterned_bytes(100, 1);
  q.append(a);
  EXPECT_EQ(q.size(), 100u);
  const BytesView head = q.front(40);
  ASSERT_EQ(head.size(), 40u);
  EXPECT_TRUE(std::equal(head.begin(), head.end(), a.begin()));
  q.pop(40);
  const BytesView rest = q.front(1'000);  // clamped to what's left
  ASSERT_EQ(rest.size(), 60u);
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), a.begin() + 40));
}

TEST(ByteQueue, FrontViewSurvivesPop) {
  ByteQueue q;
  const Bytes a = patterned_bytes(64, 2);
  q.append(a);
  const BytesView v = q.front(64);
  q.pop(32);  // pop only advances the dead prefix — no move, view intact
  EXPECT_TRUE(std::equal(v.begin(), v.end(), a.begin()));
  EXPECT_EQ(q.front(32).data(), v.data() + 32);
}

TEST(ByteQueue, ViewReadsPastTheFrontAndClamps) {
  ByteQueue q;
  const Bytes a = patterned_bytes(100, 4);
  q.append(a);
  q.pop(30);
  const BytesView mid = q.view(20, 30);  // queue bytes [20, 50) = a[50, 80)
  ASSERT_EQ(mid.size(), 30u);
  EXPECT_TRUE(std::equal(mid.begin(), mid.end(), a.begin() + 50));
  EXPECT_EQ(q.view(60, 99).size(), 10u);  // clamped at the end
  EXPECT_EQ(q.view(70, 5).size(), 0u);    // pos == size(): empty
  EXPECT_EQ(q.view(0, 7).data(), q.front(7).data());
}

TEST(ByteQueue, PopPastEndClampsAndClearResets) {
  ByteQueue q;
  q.append(patterned_bytes(10, 3));
  q.pop(99);
  EXPECT_TRUE(q.empty());
  q.append(patterned_bytes(5, 4));
  EXPECT_EQ(q.size(), 5u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.front(10).size(), 0u);
}

TEST(ByteQueue, RandomOpsMatchDequeReferenceModel) {
  std::mt19937 rng(0xbeef);
  for (int trial = 0; trial < 20; ++trial) {
    ByteQueue q;
    std::deque<std::uint8_t> ref;
    for (int op = 0; op < 500; ++op) {
      if (rng() % 2 == 0) {
        const std::size_t n = 1 + rng() % 1'000;
        const Bytes chunk = patterned_bytes(n, static_cast<std::uint32_t>(rng()));
        q.append(chunk);
        ref.insert(ref.end(), chunk.begin(), chunk.end());
      } else {
        const std::size_t n = rng() % 1'200;
        const BytesView got = q.front(n);
        ASSERT_EQ(got.size(), std::min(n, ref.size()));
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], ref[i]) << "trial " << trial;
        }
        q.pop(n);
        ref.erase(ref.begin(),
                  ref.begin() + static_cast<std::ptrdiff_t>(std::min(n, ref.size())));
      }
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
    }
  }
}

}  // namespace
}  // namespace h2priv::util
