// CacheProxy semantics: TTL freshness transitions applied at the next
// arrival, stale-while-revalidate refresh, byte-capacity LRU eviction, and
// the oversize pass-through rule. Every test feeds the proxy arrivals in
// time order, the way run_fleet's serial pre-pass does.
#include <string>

#include <gtest/gtest.h>

#include "h2priv/fleet/cache_proxy.hpp"
#include "h2priv/util/units.hpp"

namespace h2priv::fleet {
namespace {

util::TimePoint at(util::Duration d) { return util::TimePoint{} + d; }

TEST(FleetCacheProxy, MissThenHitWithinTtl) {
  CacheProxy proxy(1 << 20);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 1'000), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(util::seconds(1)), "/a", 1'000), CacheOutcome::kHit);
  EXPECT_EQ(proxy.request(at(util::seconds(9)), "/a", 1'000), CacheOutcome::kHit);
  EXPECT_EQ(proxy.stats().hits, 2u);
  EXPECT_EQ(proxy.stats().misses, 1u);
  // Nothing expires without an arrival to notice it: the entry stays.
  EXPECT_EQ(proxy.resident_objects(), 1u);
  EXPECT_EQ(proxy.resident_bytes(), 1'000u);
}

TEST(FleetCacheProxy, StaleWindowServesAndRevalidates) {
  CacheProxy proxy(1 << 20);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 500), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(kCacheTtl + util::seconds(1)), "/a", 500),
            CacheOutcome::kStale);
  // Revalidation refreshed the entry, so one second later is inside the new
  // freshness window — a plain hit, not stale again.
  EXPECT_EQ(proxy.request(at(kCacheTtl + util::seconds(2)), "/a", 500),
            CacheOutcome::kHit);
  EXPECT_EQ(proxy.stats().stale, 1u);
}

TEST(FleetCacheProxy, ArrivalAtTheExpiryInstantIsServedStale) {
  CacheProxy proxy(1 << 20);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 500), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(kCacheTtl * 2), "/a", 500), CacheOutcome::kStale);
  EXPECT_EQ(proxy.stats().evictions, 0u);
}

TEST(FleetCacheProxy, ExpiredEntryIsEvictedAtNextArrival) {
  CacheProxy proxy(1 << 20);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 500), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/b", 500), CacheOutcome::kMiss);
  // Past 2*ttl both entries are gone: the arrival evicts them, counts both,
  // then re-misses and re-inserts its own object.
  const util::TimePoint later = at(kCacheTtl * 2 + util::nanoseconds(1));
  EXPECT_EQ(proxy.request(later, "/a", 500), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.stats().evictions, 2u);
  EXPECT_EQ(proxy.resident_objects(), 1u);  // the re-insert
  EXPECT_EQ(proxy.resident_bytes(), 500u);
}

TEST(FleetCacheProxy, LruEvictionPrefersLeastRecentlyUsed) {
  CacheProxy proxy(1'000);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 400), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(util::seconds(1)), "/b", 400), CacheOutcome::kMiss);
  // Hit: /a is now the most recently used.
  EXPECT_EQ(proxy.request(at(util::seconds(2)), "/a", 400), CacheOutcome::kHit);
  // Miss: evicts /b.
  EXPECT_EQ(proxy.request(at(util::seconds(3)), "/c", 400), CacheOutcome::kMiss);
  // Hit: /a survived.
  EXPECT_EQ(proxy.request(at(util::seconds(4)), "/a", 400), CacheOutcome::kHit);
  // Miss: /b was evicted.
  EXPECT_EQ(proxy.request(at(util::seconds(5)), "/b", 400), CacheOutcome::kMiss);
  // Capacity holds two 400-byte objects; two LRU evictions, no expiry.
  EXPECT_LE(proxy.resident_bytes(), 1'000u);
  EXPECT_EQ(proxy.resident_objects(), 2u);
  EXPECT_EQ(proxy.stats().evictions, 2u);
}

TEST(FleetCacheProxy, OversizeObjectPassesThroughUncached) {
  CacheProxy proxy(1'000);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/big", 2'000), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(util::seconds(1)), "/big", 2'000), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.resident_objects(), 0u);
  EXPECT_EQ(proxy.resident_bytes(), 0u);
  EXPECT_EQ(proxy.stats().evictions, 0u);
}

TEST(FleetCacheProxy, ZeroCapacityIsCacheOff) {
  CacheProxy proxy(0);
  EXPECT_EQ(proxy.request(at(util::seconds(0)), "/a", 1), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.request(at(util::seconds(1)), "/a", 1), CacheOutcome::kMiss);
  EXPECT_EQ(proxy.resident_objects(), 0u);
}

}  // namespace
}  // namespace h2priv::fleet
