#include "h2priv/util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include "h2priv/util/bytes.hpp"

namespace h2priv::util {
namespace {

TEST(BufferPool, AcquireRoundsUpToSizeClass) {
  BufferPool pool;
  detail::ChunkHeader* tiny = pool.acquire(1);
  EXPECT_EQ(tiny->cap, 64u);
  detail::ChunkHeader* exact = pool.acquire(64);
  EXPECT_EQ(exact->cap, 64u);
  detail::ChunkHeader* next = pool.acquire(65);
  EXPECT_EQ(next->cap, 256u);
  detail::ChunkHeader* record = pool.acquire(17'000);
  EXPECT_EQ(record->cap, 17'408u);
  for (auto* h : {tiny, exact, next, record}) detail::release_chunk(h);
}

TEST(BufferPool, ReuseAfterReleaseReturnsSameChunk) {
  BufferPool pool;
  detail::ChunkHeader* first = pool.acquire(100);
  std::uint8_t* const payload = first->payload();
  detail::release_chunk(first);
  // Same size class -> the freed chunk must come back off the free list.
  detail::ChunkHeader* second = pool.acquire(200);
  EXPECT_EQ(second->payload(), payload);
  EXPECT_EQ(pool.stats().served, 2u);
  EXPECT_EQ(pool.stats().reused, 1u);
  EXPECT_EQ(pool.stats().fresh, 1u);
  detail::release_chunk(second);
}

TEST(BufferPool, OversizeFallsBackToHeap) {
  BufferPool pool;
  detail::ChunkHeader* big = pool.acquire(20'000);
  EXPECT_EQ(big->cap, 20'000u);
  EXPECT_EQ(big->pool, nullptr);  // heap chunk: freed on release, not recycled
  detail::release_chunk(big);
  detail::ChunkHeader* again = pool.acquire(20'000);
  EXPECT_EQ(pool.stats().oversize, 2u);
  EXPECT_EQ(pool.stats().reused, 0u);
  detail::release_chunk(again);
}

TEST(BufferPool, FreeListIsPerClass) {
  BufferPool pool;
  detail::ChunkHeader* small = pool.acquire(64);
  detail::ChunkHeader* large = pool.acquire(2'000);
  std::uint8_t* const small_payload = small->payload();
  detail::release_chunk(small);
  detail::release_chunk(large);
  // A 2 KiB request must not be served from the 64-byte free list.
  detail::ChunkHeader* relarge = pool.acquire(2'000);
  EXPECT_EQ(relarge->cap, 2'048u);
  detail::ChunkHeader* resmall = pool.acquire(10);
  EXPECT_EQ(resmall->payload(), small_payload);
  detail::release_chunk(relarge);
  detail::release_chunk(resmall);
}

TEST(SharedBytes, CopyBumpsRefcountMoveDoesNot) {
  BufferPool pool;
  const Bytes pattern = patterned_bytes(100, 7);
  SharedBytes a = SharedBytes::copy_of(pattern, &pool);
  EXPECT_EQ(a.ref_count(), 1u);
  SharedBytes b = a;
  EXPECT_EQ(a.ref_count(), 2u);
  SharedBytes c = std::move(b);
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(b.ref_count(), 0u);  // NOLINT(bugprone-use-after-move): empty handle
  EXPECT_TRUE(b.empty());
  c = SharedBytes();
  EXPECT_EQ(a.ref_count(), 1u);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), pattern.begin(), pattern.end()));
}

TEST(SharedBytes, LastReleaseRecyclesChunkToPool) {
  BufferPool pool;
  const std::uint8_t* payload = nullptr;
  {
    const SharedBytes s = SharedBytes::copy_of(patterned_bytes(50, 1), &pool);
    payload = s.data();
  }
  // The chunk went back on the free list, so the next same-class acquire
  // reuses the identical memory.
  const SharedBytes t = SharedBytes::copy_of(patterned_bytes(50, 2), &pool);
  EXPECT_EQ(t.data(), payload);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(SharedBytes, AliasingViewsSurvivePoolChurn) {
  BufferPool pool;
  const Bytes pattern = patterned_bytes(1'000, 42);
  const SharedBytes held = SharedBytes::copy_of(pattern, &pool);
  // Churn the same size class hard: none of these acquisitions may be
  // served from the chunk `held` still references.
  for (int i = 0; i < 100; ++i) {
    const SharedBytes churn = SharedBytes::copy_of(patterned_bytes(1'000, 9), &pool);
    EXPECT_NE(churn.data(), held.data());
  }
  EXPECT_TRUE(std::equal(held.begin(), held.end(), pattern.begin(), pattern.end()));
}

TEST(ByteWriter, PooledTakeSharedHandsChunkOffZeroCopy) {
  BufferPool pool;
  ByteWriter w(pool, 64);
  w.u32(0xdeadbeef);
  const std::uint8_t* staged = w.view().data();
  const SharedBytes s = w.take_shared();
  EXPECT_EQ(s.data(), staged);  // no copy: the staged chunk IS the result
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0], 0xde);
  EXPECT_EQ(s[3], 0xef);
  EXPECT_EQ(w.size(), 0u);
}

TEST(ByteWriter, PooledWriterRecyclesThroughThePool) {
  BufferPool pool;
  ByteWriter w(pool, 64);
  for (int round = 0; round < 10; ++round) {
    w.u64(static_cast<std::uint64_t>(round));
    const SharedBytes s = w.take_shared();
    EXPECT_EQ(s.size(), 8u);
  }  // each SharedBytes dies here -> its chunk returns to the free list
  EXPECT_EQ(pool.stats().fresh, 1u);  // the initial reserve
  EXPECT_GE(pool.stats().reused, 9u);
}

TEST(ByteWriter, VectorBackendTakeSharedCopies) {
  ByteWriter w;
  w.bytes(patterned_bytes(16, 3));
  const SharedBytes s = w.take_shared();
  const Bytes expect = patterned_bytes(16, 3);
  ASSERT_EQ(s.size(), 16u);
  EXPECT_TRUE(std::equal(s.begin(), s.end(), expect.begin(), expect.end()));
}

TEST(BufferPool, DefaultPoolIsStablePerThread) {
  BufferPool& a = default_pool();
  BufferPool& b = default_pool();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace h2priv::util
