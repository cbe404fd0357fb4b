// The caching reverse-proxy tier between the shared gateway and the origin.
//
// A CacheProxy is a deterministic object cache that the fleet pre-pass feeds
// with request arrivals in time order. Expiry needs no clock of its own:
// each request first evicts the entries whose stale window ended before it
// arrived, so freshness transitions apply in exact timestamp order without
// a timer per entry.
//
// Freshness model (stale-while-revalidate):
//   age in [0, ttl)      -> kHit    served from cache
//   age in [ttl, 2*ttl]  -> kStale  served stale, revalidation refreshes it
//   age >  2*ttl         -> entry expired (evicted on arrival) -> kMiss
//
// Capacity is enforced in bytes with LRU eviction on insert; objects larger
// than the whole cache are passed through uncached.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "h2priv/util/units.hpp"

namespace h2priv::fleet {

/// Freshness lifetime of a cached object; between kCacheTtl and 2*kCacheTtl
/// a hit is served stale-while-revalidate style (kStale outcome).
inline constexpr util::Duration kCacheTtl = util::seconds(30);

/// Per-request cache verdict. The values index the fleet pre-pass's
/// per-client {hits, misses, stale} counts; .h2t kFleet sections store
/// those counts, never an outcome.
enum class CacheOutcome { kHit = 0, kMiss = 1, kStale = 2 };

struct CacheProxyStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;
  /// LRU capacity evictions plus expiries found while requests arrive.
  std::uint64_t evictions = 0;
};

class CacheProxy {
 public:
  /// A cache of `capacity_bytes` (0 = every request misses: cache off).
  explicit CacheProxy(std::size_t capacity_bytes) : capacity_bytes_(capacity_bytes) {}

  /// Classifies one request arriving at `now`; arrivals must come in time
  /// order. Entries whose stale window ended before `now` are evicted
  /// first. A miss inserts the object (evicting LRU entries for room); a
  /// stale hit revalidates and refreshes the entry's lifetime.
  CacheOutcome request(util::TimePoint now, const std::string& path, std::size_t size);

  [[nodiscard]] const CacheProxyStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t resident_bytes() const noexcept { return resident_bytes_; }
  [[nodiscard]] std::size_t resident_objects() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::size_t size = 0;
    util::TimePoint fresh_until{};
    std::list<std::string>::iterator lru_it;
  };

  void insert(util::TimePoint now, const std::string& path, std::size_t size);
  void evict(std::map<std::string, Entry>::iterator it);

  std::size_t capacity_bytes_;
  CacheProxyStats stats_;
  std::map<std::string, Entry> entries_;
  /// LRU order, most recent at the front; iterators stored in entries_.
  std::list<std::string> lru_;
  std::size_t resident_bytes_ = 0;
};

}  // namespace h2priv::fleet
