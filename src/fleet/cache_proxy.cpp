#include "h2priv/fleet/cache_proxy.hpp"

#include <iterator>

namespace h2priv::fleet {

CacheOutcome CacheProxy::request(util::TimePoint now, const std::string& path,
                                 std::size_t size) {
  // Hard expiry at the end of the stale window. Strict: an arrival at the
  // very instant the window ends is still served stale.
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto next = std::next(it);
    if (it->second.fresh_until + kCacheTtl < now) evict(it);
    it = next;
  }

  const auto it = entries_.find(path);
  if (it == entries_.end()) {
    ++stats_.misses;
    insert(now, path, size);
    return CacheOutcome::kMiss;
  }

  Entry& e = it->second;
  // LRU touch on every access.
  lru_.splice(lru_.begin(), lru_, e.lru_it);
  if (now < e.fresh_until) {
    ++stats_.hits;
    return CacheOutcome::kHit;
  }
  // Stale window [ttl, 2*ttl]: serve stale, revalidation makes it fresh
  // again from now.
  ++stats_.stale;
  e.fresh_until = now + kCacheTtl;
  return CacheOutcome::kStale;
}

void CacheProxy::insert(util::TimePoint now, const std::string& path, std::size_t size) {
  if (size > capacity_bytes_) return;  // uncacheable; pass through
  while (resident_bytes_ + size > capacity_bytes_ && !lru_.empty()) {
    evict(entries_.find(lru_.back()));
  }
  lru_.push_front(path);
  entries_.emplace(path, Entry{size, now + kCacheTtl, lru_.begin()});
  resident_bytes_ += size;
}

void CacheProxy::evict(std::map<std::string, Entry>::iterator it) {
  resident_bytes_ -= it->second.size;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  ++stats_.evictions;
}

}  // namespace h2priv::fleet
